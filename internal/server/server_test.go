package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// newTestServer builds a MemDevice-backed pool and a loopback server
// over it. The caller owns shutdown via the returned close func (abrupt;
// drain tests call Drain themselves first).
func newTestServer(t *testing.T, frames int, cfg Config) (*Server, *storage.MemDevice, func()) {
	t.Helper()
	mem := storage.NewMemDevice()
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: replacer.Factories()["lru"],
		Device:        mem,
	})
	cfg.Pool = pool
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, mem, func() { srv.Close() }
}

func testPage(n uint64) page.PageID { return page.NewPageID(1, n) }

func TestServerRoundTrips(t *testing.T) {
	srv, _, done := newTestServer(t, 16, Config{})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// GET of an unwritten page returns the device's deterministic stamp.
	id := testPage(1)
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	var want page.Page
	want.Stamp(id)
	if !bytes.Equal(got, want.Data[:]) {
		t.Fatal("GET bytes differ from the device stamp")
	}

	// PUT new content, re-GET it through the cache.
	var mine page.Page
	mine.Stamp(testPage(99))
	if err := c.Put(id, mine.Data[:]); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err = c.Get(id)
	if err != nil {
		t.Fatalf("Get after Put: %v", err)
	}
	if !bytes.Equal(got, mine.Data[:]) {
		t.Fatal("GET did not return the PUT content")
	}

	// FLUSH makes it durable.
	n, err := c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n < 1 {
		t.Fatalf("Flush reported %d pages, want ≥ 1", n)
	}

	// INVALIDATE drops the cached copy; re-GET reloads from the device,
	// which now holds the flushed content.
	if err := c.Invalidate(id); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	got, err = c.Get(id)
	if err != nil {
		t.Fatalf("Get after Invalidate: %v", err)
	}
	if !bytes.Equal(got, mine.Data[:]) {
		t.Fatal("reloaded page is not the flushed content")
	}

	// The pool's counters reflect the traffic.
	if st := srv.Pool().Stats(); st.Misses == 0 {
		t.Fatalf("Pool.Stats = %+v, want misses>0", st)
	}

	// Typed errors survive the wire.
	if _, err := c.Get(page.InvalidPageID); !errors.Is(err, storage.ErrInvalidPage) {
		t.Fatalf("GET invalid page: err = %v, want ErrInvalidPage", err)
	}
}

func TestServerPipelinedBatch(t *testing.T) {
	srv, _, done := newTestServer(t, 64, Config{})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	var ops []Op
	for i := uint64(0); i < 32; i++ {
		ops = append(ops, Op{Code: OpGet, Page: testPage(i)})
	}
	results, err := c.Do(ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		var want page.Page
		want.Stamp(testPage(uint64(i)))
		if !bytes.Equal(r.Data, want.Data[:]) {
			t.Fatalf("op %d: wrong page content", i)
		}
	}
	// A mixed batch: PUT then GET of the same page sees the new bytes
	// (per-connection requests are served in order).
	var pg page.Page
	pg.Stamp(testPage(1000))
	results, err = c.Do([]Op{
		{Code: OpPut, Page: testPage(5), Data: pg.Data[:]},
		{Code: OpGet, Page: testPage(5)},
	})
	if err != nil {
		t.Fatalf("Do put+get: %v", err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("put/get errs: %v / %v", results[0].Err, results[1].Err)
	}
	if !bytes.Equal(results[1].Data, pg.Data[:]) {
		t.Fatal("pipelined GET did not observe the preceding PUT")
	}
}

// TestServerDuplicateRequestIDs pins the framing contract: IDs are the
// client's namespace, matching is positional, so a (buggy or adversarial)
// client reusing an ID still gets both answers, in order, echoing it.
func TestServerDuplicateRequestIDs(t *testing.T) {
	srv, _, done := newTestServer(t, 8, Config{})
	defer done()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	var pid [8]byte
	be.PutUint64(pid[:], uint64(testPage(1)))
	raw := appendFrame(nil, OpGet, 42, pid[:])
	raw = appendFrame(raw, OpGet, 42, pid[:])
	if _, err := nc.Write(raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	fr := frameReaderOn(nc)
	for i := 0; i < 2; i++ {
		status, id, payload, err := fr.next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if status != StatusOK || id != 42 || len(payload) != page.Size {
			t.Fatalf("response %d: status=%s id=%d len=%d", i, statusName(status), id, len(payload))
		}
	}
}

// TestServerBadRequests verifies malformed payloads get typed BadRequest
// answers while the connection survives, and an unknown opcode retires
// the connection after answering (alignment is unprovable past it).
func TestServerBadRequests(t *testing.T) {
	srv, _, done := newTestServer(t, 8, Config{})
	defer done()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	fr := frameReaderOn(nc)

	// Short GET payload: BadRequest, connection still serves.
	raw := appendFrame(nil, OpGet, 1, []byte{1, 2, 3})
	var pid [8]byte
	be.PutUint64(pid[:], uint64(testPage(1)))
	raw = appendFrame(raw, OpGet, 2, pid[:])
	if _, err := nc.Write(raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	status, id, msg, err := fr.next()
	if err != nil || status != StatusBadRequest || id != 1 {
		t.Fatalf("bad GET: status=%s id=%d err=%v (%q)", statusName(status), id, err, msg)
	}
	status, id, _, err = fr.next()
	if err != nil || status != StatusOK || id != 2 {
		t.Fatalf("follow-up GET: status=%s id=%d err=%v", statusName(status), id, err)
	}

	// Unknown opcode: BadRequest response, then the server hangs up.
	if _, err := nc.Write(appendFrame(nil, 0xEE, 3)); err != nil {
		t.Fatalf("write unknown op: %v", err)
	}
	status, id, _, err = fr.next()
	if err != nil || status != StatusBadRequest || id != 3 {
		t.Fatalf("unknown op: status=%s id=%d err=%v", statusName(status), id, err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, _, err = fr.next(); err == nil {
		t.Fatal("connection survived an unknown opcode")
	}
}

// frameReaderOn wraps a raw test connection for response decoding.
func frameReaderOn(nc net.Conn) *frameReader {
	return newFrameReader(nc, false)
}

// isConnReset reports a peer-reset transport error (the poke/close race
// surfaces as ECONNRESET on some kernels, EPIPE on others).
func isConnReset(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "broken pipe"))
}

func TestServerMaxConns(t *testing.T) {
	srv, _, done := newTestServer(t, 8, Config{MaxConns: 2})
	defer done()

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer c2.Close()
	// Ensure both are registered before the third tries.
	if _, err := c1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	c3, err := Dial(srv.Addr())
	if err == nil {
		// Accept succeeded at the TCP level; the server closes it
		// immediately, so the first round trip must fail.
		defer c3.Close()
		if _, err := c3.Get(testPage(1)); err == nil {
			t.Fatal("third connection served beyond MaxConns=2")
		}
	}
}

func TestServerObsMetrics(t *testing.T) {
	srv, _, done := newTestServer(t, 8, Config{})
	defer done()

	reg := obs.NewRegistry()
	srv.RegisterObs(reg)
	srv.Pool().RegisterObs(reg)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Get(testPage(1)); err != nil {
		t.Fatalf("Get: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"bpw_server_conns_accepted_total 1",
		`bpw_server_requests_total{op="get"} 1`,
		`bpw_server_responses_total{status="ok"} 1`,
		"bpw_server_bytes_in_total",
		"bpw_server_bytes_out_total",
		"bpw_server_op_seconds_count",
		"bpw_server_conns_active 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServerDrainGraceServesResidentThenRefuses walks the drain ladder
// end to end over the wire: during the grace window resident GETs serve
// and misses shed as typed OVERLOADED; past the grace, requests answer
// DRAINING; acknowledged writes survive into the device.
func TestServerDrainGraceServesResidentThenRefuses(t *testing.T) {
	srv, mem, done := newTestServer(t, 8, Config{DrainGrace: 300 * time.Millisecond})
	defer done()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Warm page 1 and dirty it: the drain must flush this without help.
	resident := testPage(1)
	var pg page.Page
	pg.Stamp(testPage(777))
	if err := c.Put(resident, pg.Data[:]); err != nil {
		t.Fatalf("Put: %v", err)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(10 * time.Second) }()
	waitFor(t, 2*time.Second, func() bool { return srv.state.Load() >= stateDraining })

	// Grace window: the resident page still serves over the wire…
	got, err := c.Get(resident)
	if err != nil {
		t.Fatalf("resident GET during grace: %v", err)
	}
	if !bytes.Equal(got, pg.Data[:]) {
		t.Fatal("resident GET served wrong bytes during grace")
	}
	// …while a miss sheds with the typed OVERLOADED status.
	if _, err := c.Get(testPage(500)); !errors.Is(err, buffer.ErrOverloaded) {
		t.Fatalf("miss during grace: err = %v, want ErrOverloaded", err)
	}

	// Past the grace: anything still sent answers DRAINING (or the
	// connection is already gone, if the poke won the race).
	waitFor(t, 2*time.Second, func() bool { return srv.state.Load() >= stateClosing })
	if _, err := c.Get(resident); err != nil && !errors.Is(err, ErrDraining) {
		// Transport errors are legal here — the poke may close the
		// connection before this request lands.
		var ne net.Error
		if !errors.As(err, &ne) && !errors.Is(err, net.ErrClosed) &&
			!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !isConnReset(err) {
			t.Fatalf("post-grace GET: unexpected error type %v", err)
		}
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The acknowledged PUT is durable: the device holds its bytes.
	var onDisk page.Page
	if err := mem.ReadPage(resident, &onDisk); err != nil {
		t.Fatalf("device read: %v", err)
	}
	if !bytes.Equal(onDisk.Data[:], pg.Data[:]) {
		t.Fatal("acknowledged PUT lost through drain")
	}
	// Second drain is refused.
	if err := srv.Drain(time.Second); !errors.Is(err, ErrDraining) {
		t.Fatalf("second Drain: err = %v, want ErrDraining", err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scriptConn is a net.Conn whose inbound bytes are scripted and whose
// outbound writes and write-deadline arms are recorded.
type scriptConn struct {
	net.Conn // nil: any method not overridden below must not be reached
	in       *bytes.Reader
	out      bytes.Buffer
	wrote    []*byte // first byte of each Write's argument
	arms     int
	onWrite  func(p []byte) // called at the start of each Write, when set
	failFrom int            // Write number failFrom (from 1) and every later one fail; 0: none does
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Close() error               { return nil }
func (c *scriptConn) Write(p []byte) (int, error) {
	if c.onWrite != nil {
		c.onWrite(p)
	}
	c.wrote = append(c.wrote, &p[0])
	if c.failFrom != 0 && len(c.wrote) >= c.failFrom {
		return 0, errors.New("scriptConn: peer gone")
	}
	return c.out.Write(p)
}
func (c *scriptConn) SetWriteDeadline(time.Time) error {
	c.arms++
	return nil
}

// TestClientRequestEncoding pins the client's in-place request encoder to
// appendFrame — and so to the golden vectors — for every opcode, with and
// without the trace-context extension, and checks that a PUT's page
// reaches the socket as the caller's own slice, not a copy.
func TestClientRequestEncoding(t *testing.T) {
	var pg page.Page
	pg.Stamp(testPage(7))
	ops := []Op{
		{Code: OpGet, Page: testPage(1)},
		{Code: OpPut, Page: testPage(2), Data: pg.Data[:]},
		{Code: OpInvalidate, Page: testPage(3)},
		{Code: OpFlush},
		{Code: OpPut, Page: testPage(4), Data: pg.Data[:]},
		{Code: OpFlush},
	}
	for _, trace := range []uint64{0, 0x1122334455667788} {
		nc := &scriptConn{in: bytes.NewReader(nil)}
		c := &Client{nc: nc, fr: newFrameReader(nc, true), next: 100}
		c.SetTraceID(trace)
		var want []byte
		for i, op := range ops {
			var parts [][]byte
			code := op.Code
			if trace != 0 {
				code |= TraceFlag
				parts = append(parts, be.AppendUint64(nil, trace))
			}
			if op.Code != OpFlush {
				parts = append(parts, be.AppendUint64(nil, uint64(op.Page)))
			}
			if op.Code == OpPut {
				parts = append(parts, op.Data)
			}
			want = appendFrame(want, code, 100+uint64(i), parts...)
		}
		if err := c.send(ops, 100); err != nil {
			t.Fatalf("send: %v", err)
		}
		if !bytes.Equal(nc.out.Bytes(), want) {
			t.Fatalf("trace %#x: burst on the wire differs from appendFrame's encoding", trace)
		}
		// Five runs: headers up to the first page, the page, headers up
		// to the second, the page, the last FLUSH header.
		if len(nc.wrote) != 5 || nc.wrote[1] != &pg.Data[0] || nc.wrote[3] != &pg.Data[0] {
			t.Fatalf("trace %#x: burst went out as %d buffers, or its pages as copies", trace, len(nc.wrote))
		}
	}
	nc := &scriptConn{in: bytes.NewReader(nil)}
	c := &Client{nc: nc, fr: newFrameReader(nc, true)}
	if err := c.Put(testPage(1), make([]byte, 10)); err == nil || len(nc.wrote) != 0 {
		t.Fatalf("short PUT: err = %v after %d writes, want an error before any", err, len(nc.wrote))
	}
}

// getScript encodes n GET requests, IDs 0..n-1, for pages 0..n-1 mod span.
func getScript(n, span uint64) []byte {
	var raw []byte
	for i := uint64(0); i < n; i++ {
		raw = appendFrame(raw, OpGet, i, be.AppendUint64(nil, uint64(testPage(i%span))))
	}
	return raw
}

// serveScript serves nc's script on a connection of srv, on this
// goroutine; it returns when serve does.
func serveScript(srv *Server, nc *scriptConn) {
	c := newConn(srv, nc)
	srv.wg.Add(1)
	srv.c.active.Add(1)
	c.serve()
}

// TestServerArmsDeadlinePerSocketWrite verifies that a burst leaves as a
// burst, with the write deadline armed where a write can block — once per
// socket write — and not once per response. The 16-GET burst the benchmark
// sends and the 8-GET burst of bpload -pipeline 8 (one page more than a
// 64 KB buffer held) each reach the socket in exactly one write. A 500-GET
// burst is cut by the writeBufSize ceiling — the constant, and through the
// writeBuf seam one page response ("flush every page") and one that holds
// two pages — into writes that never carry more than the ceiling. No write happens
// with a page pinned, and however the stream was cut it is byte for byte
// appendFrame's encoding of the same responses.
func TestServerArmsDeadlinePerSocketWrite(t *testing.T) {
	const span = 8
	for _, tc := range []struct {
		gets           uint64
		bufSize, wrote int
	}{
		{16, 0, 1},
		{8, 0, 1},
		{500, 0, 17}, // 31 pages fit 256 KB
		{500, pageRespLen, 500},
		{500, 20000, 250},
	} {
		srv, _, done := newTestServer(t, 32, Config{writeBuf: tc.bufSize})
		ceiling := srv.cfg.writeBuf
		nc := &scriptConn{in: bytes.NewReader(getScript(tc.gets, span))}
		nc.onWrite = func(p []byte) {
			if len(p) > ceiling {
				t.Errorf("%d GETs, ceiling %d: a socket write of %d bytes", tc.gets, tc.bufSize, len(p))
			}
			if n := srv.Pool().PinnedFrames(); n != 0 {
				t.Errorf("%d GETs, ceiling %d: socket write %d with %d page(s) pinned", tc.gets, tc.bufSize, len(nc.wrote), n)
			}
		}
		serveScript(srv, nc) // returns on the script's EOF

		var want []byte
		for i := uint64(0); i < tc.gets; i++ {
			var pg page.Page
			pg.Stamp(testPage(i % span))
			want = appendFrame(want, StatusOK, i, pg.Data[:])
		}
		if !bytes.Equal(nc.out.Bytes(), want) {
			t.Fatalf("%d GETs, ceiling %d: response stream differs from appendFrame's encoding", tc.gets, tc.bufSize)
		}
		if got := srv.Stats().Responses["ok"]; got != int64(tc.gets) {
			t.Fatalf("%d GETs, ceiling %d: %d OK responses counted", tc.gets, tc.bufSize, got)
		}
		// The exit path's best-effort flush has nothing left to write, so
		// it arms nothing either.
		if len(nc.wrote) != tc.wrote || nc.arms != tc.wrote {
			t.Fatalf("%d GETs, ceiling %d: %d socket writes, deadline armed %d times; want %d of each",
				tc.gets, tc.bufSize, len(nc.wrote), nc.arms, tc.wrote)
		}
		done()
	}
}

// TestServerBurstStickyWriteError fails the second socket write of a burst
// that is flushed page by page: the handler retires without offering the
// socket anything more, and what it served up to there is still counted.
func TestServerBurstStickyWriteError(t *testing.T) {
	srv, _, done := newTestServer(t, 32, Config{writeBuf: pageRespLen})
	defer done()
	nc := &scriptConn{in: bytes.NewReader(getScript(10, 8)), failFrom: 2}
	serveScript(srv, nc) // must return, the script's other eight GETs unread

	if len(nc.wrote) != 2 || nc.out.Len() != pageRespLen {
		t.Fatalf("%d socket writes, %d bytes delivered; want 2 (the second failing) and one response", len(nc.wrote), nc.out.Len())
	}
	// The second page waited in the buffer while the third GET asked for
	// room: three requests were decoded, two answered, one refused room.
	st := srv.Stats()
	if st.Requests["get"] != 3 || st.Responses["ok"] != 2 || st.WriteTimeouts != 0 {
		t.Fatalf("after a failed write: %+v; want 3 GETs, 2 OK, no timeout", st)
	}
	if st.BytesOut != pageRespLen {
		t.Fatalf("BytesOut %d after one delivered response, want %d", st.BytesOut, pageRespLen)
	}
}

// TestServerFoldVisibleBeforeResponse pins the ordering of the counter
// fold: a connection's staged counts reach the shared counters before the
// socket write that carries the responses, so a client that has a burst's
// results in hand already finds every op of it in Stats. Four clients,
// each the only sender of its opcode, check that exactly after every Do;
// at quiescence the totals are exact.
func TestServerFoldVisibleBeforeResponse(t *testing.T) {
	srv, _, done := newTestServer(t, 64, Config{})
	defer done()

	const bursts, perBurst = 200, 8
	var pg page.Page
	codes := []byte{OpGet, OpPut, OpInvalidate, OpFlush}
	var wg sync.WaitGroup
	for _, code := range codes {
		wg.Add(1)
		go func(code byte) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ops := make([]Op, perBurst)
			for b := 1; b <= bursts; b++ {
				for i := range ops {
					// Pages of its own: an INVALIDATE of a page another client
					// has pinned is refused, and this test wants only OKs.
					ops[i] = Op{Code: code, Page: testPage(uint64(code)<<20 + uint64(b*perBurst+i)), Data: pg.Data[:]}
				}
				res, err := c.Do(ops)
				if err != nil {
					t.Errorf("%s: Do: %v", opName(code), err)
					return
				}
				for i, r := range res {
					if r.Err != nil {
						t.Errorf("%s: op %d: %v", opName(code), i, r.Err)
						return
					}
				}
				st := srv.Stats()
				if got, want := st.Requests[opName(code)], int64(b*perBurst); got != want {
					t.Errorf("%s: after burst %d Stats counts %d requests, want %d", opName(code), b, got, want)
					return
				}
				if got, min := st.Responses["ok"], int64(b*perBurst); got < min {
					t.Errorf("%s: after burst %d Stats counts %d OK responses, want at least this client's %d", opName(code), b, got, min)
					return
				}
			}
		}(code)
	}
	wg.Wait()

	st := srv.Stats()
	for _, code := range codes {
		if got := st.Requests[opName(code)]; got != bursts*perBurst {
			t.Errorf("%s: %d requests at quiescence, want %d", opName(code), got, bursts*perBurst)
		}
	}
	if got, want := st.Responses["ok"], int64(len(codes)*bursts*perBurst); got != want || len(st.Responses) != 1 {
		t.Errorf("responses at quiescence %v, want %d OK and nothing else", st.Responses, want)
	}
	if st.Inflight != 0 {
		t.Errorf("Inflight %d at quiescence", st.Inflight)
	}
	for _, code := range codes {
		if got := srv.c.lat[code].Count(); got != bursts*perBurst {
			t.Errorf("%s: latency histogram holds %d observations, want %d", opName(code), got, bursts*perBurst)
		}
	}
}

// TestClientDoResultsAliasReceiveBuffer pins Do's result-lifetime
// contract from both sides. Within a call every page stays intact, even
// when the burst outgrows the receive buffer and it is replaced mid-burst;
// across calls the results are the client's to overwrite.
func TestClientDoResultsAliasReceiveBuffer(t *testing.T) {
	srv, _, done := newTestServer(t, 256, Config{})
	defer done()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	burst := func(base uint64) []Op {
		ops := make([]Op, 64)
		for i := range ops {
			ops[i] = Op{Code: OpGet, Page: testPage(base + uint64(i))}
		}
		return ops
	}
	check := func(res []OpResult, base uint64) {
		t.Helper()
		for i, r := range res {
			var want page.Page
			want.Stamp(testPage(base + uint64(i)))
			if r.Err != nil || !bytes.Equal(r.Data, want.Data[:]) {
				t.Fatalf("op %d (err %v): page not intact after the last response arrived", i, r.Err)
			}
		}
	}
	// 64 pages are sixteen times the initial buffer: the first call grows
	// it several times while earlier results are already handed out.
	buf0 := c.fr.buf
	res, err := c.Do(burst(0))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	check(res, 0)
	if &c.fr.buf[0] == &buf0[0] {
		t.Fatal("a 64-page burst fitted the initial receive buffer; the test no longer covers growth")
	}

	// Repeat until the buffer holds a whole burst and stops being replaced.
	for i := 0; ; i++ {
		before := &c.fr.buf[0]
		if res, err = c.Do(burst(0)); err != nil {
			t.Fatalf("Do: %v", err)
		}
		check(res, 0)
		if &c.fr.buf[0] == before {
			break
		}
		if i == 4 {
			t.Fatal("receive buffer still being replaced after five identical bursts")
		}
	}
	// The contract's other half, made visible: a result kept across the
	// next call now shows that call's bytes — here, its first page.
	sentinel := res[0].Data
	res2, err := c.Do(burst(100))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	check(res2, 100)
	if &sentinel[0] != &res2[0].Data[0] || !bytes.Equal(sentinel, res2[0].Data) {
		t.Fatal("a retained result did not alias the next call's receive buffer; if results became owned copies, update OpResult's contract")
	}
	// Get is a one-frame burst under the same rule.
	var want page.Page
	want.Stamp(testPage(1))
	if got, err := c.Get(testPage(1)); err != nil || !bytes.Equal(got, want.Data[:]) || &got[0] != &sentinel[0] {
		t.Fatalf("Get after Do (err %v): wrong page, or not where the last call's first result lay", err)
	}
}

// TestClientDoTransportErrorFailsBatch cuts the stream inside the second
// response of a burst: Do fails as a whole, first result included.
func TestClientDoTransportErrorFailsBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		io.ReadFull(nc, make([]byte, 2*(4+frameHeaderLen+8))) //nolint:errcheck
		resp := appendFrame(nil, StatusOK, 0, make([]byte, page.Size))
		resp = append(resp, appendFrame(nil, StatusOK, 1, make([]byte, page.Size))[:100]...)
		nc.Write(resp) //nolint:errcheck
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Do([]Op{{Code: OpGet, Page: testPage(1)}, {Code: OpGet, Page: testPage(2)}})
	if !errors.Is(err, io.ErrUnexpectedEOF) || res != nil {
		t.Fatalf("Do = %v, %v; want nil, ErrUnexpectedEOF", res, err)
	}
}

// TestWirePathZeroAlloc verifies the steady-state wire path allocates
// nothing — client and server together, since both run in this process
// and AllocsPerRun counts every goroutine's mallocs.
func TestWirePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv, _, done := newTestServer(t, 64, Config{})
	defer done()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	var pg page.Page
	gets, puts := make([]Op, 16), make([]Op, 16)
	for i := range gets {
		gets[i] = Op{Code: OpGet, Page: testPage(uint64(i))}
		puts[i] = Op{Code: OpPut, Page: testPage(uint64(i)), Data: pg.Data[:]}
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"Get", func() error { _, err := c.Get(testPage(1)); return err }},
		{"Put", func() error { return c.Put(testPage(1), pg.Data[:]) }},
		{"Do-16-GET", func() error { _, err := c.Do(gets); return err }},
		{"Do-16-PUT", func() error { _, err := c.Do(puts); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 8; i++ { // fault the pages in, grow the buffers
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocations per call, want 0", allocs)
			}
		})
	}
}

// TestStatsAnswersWhileThePolicyLockIsHeld: neither /metrics nor
// Pool.Stats takes the policy lock. With the lock held, as a miss holds it,
// the pool's /metrics page renders and Pool.Stats returns, and neither
// counts a policy-lock acquisition.
func TestStatsAnswersWhileThePolicyLockIsHeld(t *testing.T) {
	srv, _, done := newTestServer(t, 16, Config{})
	defer done()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Get(testPage(1)); err != nil {
		t.Fatalf("Get: %v", err)
	}
	reg := obs.NewRegistry()
	srv.Pool().RegisterObs(reg)

	w := srv.pool.Wrapper()
	w.LockedSlots(func(replacer.SlotPolicy) {
		before := w.Stats().Lock.Acquisitions
		rendered := make(chan string, 1)
		go func() {
			var sb strings.Builder
			_ = reg.WritePrometheus(&sb)
			rendered <- sb.String()
		}()
		select {
		case text := <-rendered:
			if !strings.Contains(text, "bpw_misses_total 1\n") {
				t.Fatalf("/metrics with the policy lock held reads no miss:\n%s", text)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("/metrics did not render while the policy lock was held")
		}
		if st := srv.pool.Stats(); st.Misses != 1 {
			t.Fatalf("Pool.Stats with the policy lock held: misses %d, want 1", st.Misses)
		}
		if got := w.Stats().Lock.Acquisitions; got != before {
			t.Fatalf("policy-lock acquisitions %d -> %d across a /metrics render and a Stats call, want none", before, got)
		}
	})
}
