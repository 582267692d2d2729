package bench

import (
	"fmt"
	"io"
	"net"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
)

// ---------------------------------------------------------------------------
// Experiment E18 — serving the pool over the wire (DESIGN.md §13): a
// loopback bpserver driven through the binary protocol. One client replays
// a seeded op stream (GET/PUT/INVALIDATE with a closing FLUSH)
// synchronously per burst, per pipeline-depth arm, plus one
// deliberately malformed frame on a second connection. Every number —
// per-op request counts, per-status response counts, bytes in/out, the
// pool's hit/miss split — is exact and byte-identical on any machine: the
// op stream is a fixed function of the seed, frames are fixed-size, and the
// snapshot is taken at quiescence. This is the committed
// results/BENCH_server.json baseline, drift-checked by CI: it pins the wire
// format's byte accounting, the request taxonomy, and that bad frames are
// counted and contained. Wall-clock throughput over the wire is
// benchmark/'s wire_get and wire_mixed.

// Server-experiment tuning: a working set that fits the pool so the
// ledger arms measure protocol accounting, not eviction noise.
const (
	ServerFrames = 256
	ServerPages  = 192
	serverOps    = 4096
)

// ServerLedgerRow is one pipeline depth's arm of the deterministic
// ledger. All fields are exact post-quiescence totals.
type ServerLedgerRow struct {
	Pipeline  int              `json:"pipeline"`
	Ops       int64            `json:"ops"`
	Requests  map[string]int64 `json:"requests"`  // by op name
	Responses map[string]int64 `json:"responses"` // by status name
	BytesIn   int64            `json:"bytes_in"`
	BytesOut  int64            `json:"bytes_out"`
	Hits      int64            `json:"hits"`
	Misses    int64            `json:"misses"`
	Flushed   int64            `json:"flushed"`    // pages written by the closing FLUSH
	BadFrames int64            `json:"bad_frames"` // from the malformed-frame probe
}

// ServerReport is the E18 result, the committed baseline.
type ServerReport struct {
	Experiment string            `json:"experiment"`
	Mode       string            `json:"mode"`
	Seed       int64             `json:"seed"`
	Frames     int               `json:"frames"`
	Pages      int               `json:"pages"`
	LedgerRows []ServerLedgerRow `json:"ledger_rows"`
}

// ServerExperiment runs E18's ledger; only the seed is consulted.
func ServerExperiment(o Options) (*ServerReport, error) {
	rep := &ServerReport{
		Experiment: "server",
		Mode:       modeSim,
		Seed:       o.Seed,
		Frames:     ServerFrames,
		Pages:      ServerPages,
	}
	for _, pipeline := range []int{1, 16} {
		row, err := serverLedgerArm(pipeline, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("server ledger pipeline=%d: %w", pipeline, err)
		}
		rep.LedgerRows = append(rep.LedgerRows, row)
	}
	return rep, nil
}

// serverLedgerArm drives one pipeline depth's arm: the seeded op
// stream through one client, the malformed-frame probe through another,
// then a quiescent snapshot of the server and pool counters.
func serverLedgerArm(pipeline int, seed int64) (ServerLedgerRow, error) {
	// Memory device, LRU, defaults elsewhere: the arm measures the protocol
	// layer, not the policy.
	pool, err := newPool("lru", buffer.Config{
		Frames: ServerFrames,
		Device: storage.NewMemDevice(),
	})
	if err != nil {
		return ServerLedgerRow{}, err
	}
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		return ServerLedgerRow{}, err
	}
	defer srv.Close()

	c, err := server.Dial(srv.Addr())
	if err != nil {
		return ServerLedgerRow{}, err
	}
	defer c.Close()

	// The op stream: a fixed function of the seed. 60% GET, 30% PUT,
	// 10% INVALIDATE over the working set, pipelined at the arm's depth.
	r := uint64(seed)*0x9e3779b97f4a7c15 + 1
	var ops []server.Op
	pages := make([]page.Page, pipeline)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		results, err := c.Do(ops)
		ops = ops[:0]
		if err != nil {
			return err
		}
		for i := range results {
			if results[i].Err != nil {
				return fmt.Errorf("op %d: %w", i, results[i].Err)
			}
		}
		return nil
	}
	for i := 0; i < serverOps; i++ {
		r = splitmix64(&r)
		id := page.NewPageID(1, r%ServerPages)
		r = splitmix64(&r)
		switch {
		case r%10 < 6:
			ops = append(ops, server.Op{Code: server.OpGet, Page: id})
		case r%10 < 9:
			pg := &pages[len(ops)]
			pg.Stamp(id)
			ops = append(ops, server.Op{Code: server.OpPut, Page: id, Data: pg.Data[:]})
		default:
			ops = append(ops, server.Op{Code: server.OpInvalidate, Page: id})
		}
		if len(ops) >= pipeline {
			if err := flush(); err != nil {
				return ServerLedgerRow{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return ServerLedgerRow{}, err
	}
	flushed, err := c.Flush()
	if err != nil {
		return ServerLedgerRow{}, err
	}

	// The malformed-frame probe: a length word below the header minimum.
	// The server must count it and retire only that connection.
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return ServerLedgerRow{}, err
	}
	if _, err := bad.Write([]byte{0x00, 0x00, 0x00, 0x03}); err != nil {
		bad.Close()
		return ServerLedgerRow{}, err
	}
	bad.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().BadFrames == 0 {
		if time.Now().After(deadline) {
			return ServerLedgerRow{}, fmt.Errorf("malformed frame never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// Quiescent snapshot.
	st := srv.Stats()
	pst := pool.Stats()
	row := ServerLedgerRow{
		Pipeline:  pipeline,
		Ops:       serverOps,
		Requests:  st.Requests,
		Responses: st.Responses,
		BytesIn:   st.BytesIn,
		BytesOut:  st.BytesOut,
		Hits:      pst.Hits,
		Misses:    pst.Misses,
		Flushed:   int64(flushed),
		BadFrames: st.BadFrames,
	}
	if err := pool.Close(); err != nil {
		return ServerLedgerRow{}, err
	}
	return row, nil
}

// PrintServer renders the ledger.
func PrintServer(w io.Writer, rep *ServerReport) {
	fmt.Fprintln(w, "Serving over the wire (E18) — loopback bpserver protocol ledger")
	fmt.Fprintf(w, "\nByte/op ledger (%d seeded ops over %d pages in %d frames, 1 client)\n",
		serverOps, rep.Pages, rep.Frames)
	fmt.Fprintf(w, "  %9s %7s %7s %7s %7s %10s %12s %8s %8s %8s\n",
		"pipeline", "gets", "puts", "inval", "flush", "bytes_in", "bytes_out", "hits", "misses", "badfrm")
	for _, r := range rep.LedgerRows {
		fmt.Fprintf(w, "  %9d %7d %7d %7d %7d %10d %12d %8d %8d %8d\n",
			r.Pipeline,
			r.Requests["get"], r.Requests["put"], r.Requests["invalidate"], r.Requests["flush"],
			r.BytesIn, r.BytesOut, r.Hits, r.Misses, r.BadFrames)
	}
}
