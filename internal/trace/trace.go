// Package trace records page-access traces and replays them through
// replacement policies. It backs two parts of the reproduction:
//
//   - the hit-ratio fidelity experiment (E9 in EXPERIMENTS.md): the paper's
//     Figure 8 shows the hit-ratio curves of pg2Q and pgBatPre overlapping,
//     i.e. deferring hit records in bounded batches does not measurably
//     change replacement decisions; Replay vs ReplayBatched quantifies that
//     on identical traces;
//   - policy hit-ratio studies across buffer sizes (the classical way
//     replacement algorithms are compared).
//
// Traces serialize to a compact binary format so workloads can be captured
// once and replayed under many policies.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/workload"
)

// Trace is a sequence of page accesses in global interleaved order.
type Trace struct {
	Accesses []workload.Access
}

// Record captures a trace from a workload: `workers` streams are
// interleaved transaction-by-transaction in round-robin order, a
// deterministic stand-in for concurrent execution.
func Record(wl workload.Workload, workers, txnsPerWorker int, seed int64) *Trace {
	if workers <= 0 || txnsPerWorker <= 0 {
		panic("trace: workers and txnsPerWorker must be positive")
	}
	streams := make([]workload.Stream, workers)
	for w := range streams {
		streams[w] = wl.NewStream(w, seed)
	}
	t := &Trace{}
	buf := make([]workload.Access, 0, 512)
	for i := 0; i < txnsPerWorker; i++ {
		for _, s := range streams {
			buf = s.NextTxn(buf[:0])
			t.Accesses = append(t.Accesses, buf...)
		}
	}
	return t
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// DistinctPages returns the number of distinct pages referenced.
func (t *Trace) DistinctPages() int {
	seen := make(map[page.PageID]struct{})
	for _, a := range t.Accesses {
		seen[a.Page] = struct{}{}
	}
	return len(seen)
}

// traceMagic identifies the serialization format.
const traceMagic = uint32(0xB9E7_2009) // "BP-Wrapper, ICDE 2009"

// WriteTo serializes the trace. Each access is the PageID with the write
// flag folded into bit 63 (PageIDs use 64 bits but table numbers cap at
// 2^20, so bit 63 is always free).
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], traceMagic)
	binary.LittleEndian.PutUint32(scratch[4:], uint32(0)) // version
	if _, err := bw.Write(scratch[:]); err != nil {
		return n, err
	}
	n += 8
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(t.Accesses)))
	if _, err := bw.Write(scratch[:]); err != nil {
		return n, err
	}
	n += 8
	for _, a := range t.Accesses {
		v := uint64(a.Page)
		if a.Write {
			v |= 1 << 63
		}
		binary.LittleEndian.PutUint64(scratch[:], v)
		if _, err := bw.Write(scratch[:]); err != nil {
			return n, err
		}
		n += 8
	}
	return n, bw.Flush()
}

// ReadFrom deserializes a trace written by WriteTo, replacing t's contents.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	var scratch [8]byte
	if _, err := io.ReadFull(br, scratch[:]); err != nil {
		return n, err
	}
	n += 8
	if binary.LittleEndian.Uint32(scratch[:4]) != traceMagic {
		return n, errors.New("trace: bad magic")
	}
	if _, err := io.ReadFull(br, scratch[:]); err != nil {
		return n, err
	}
	n += 8
	count := binary.LittleEndian.Uint64(scratch[:])
	const maxTrace = 1 << 30
	if count > maxTrace {
		return n, fmt.Errorf("trace: implausible access count %d", count)
	}
	// Do not pre-allocate from the untrusted header: a short file with a
	// huge declared count must fail with io.ErrUnexpectedEOF, not exhaust
	// memory first. Grow with the data that actually arrives.
	prealloc := count
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	t.Accesses = make([]workload.Access, 0, prealloc)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return n, err
		}
		n += 8
		v := binary.LittleEndian.Uint64(scratch[:])
		t.Accesses = append(t.Accesses, workload.Access{
			Page:  page.PageID(v &^ (1 << 63)),
			Write: v>>63 == 1,
		})
	}
	return n, nil
}

// Result summarizes one replay.
type Result struct {
	Accesses int64
	Hits     int64
	Misses   int64
}

// HitRatio returns hits / accesses.
func (r Result) HitRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// Replay drives the policy with the trace, admitting on miss, and returns
// hit statistics. The policy is used unlocked and single-threaded.
func Replay(p replacer.Policy, t *Trace) Result {
	var res Result
	for _, a := range t.Accesses {
		res.Accesses++
		if p.Contains(a.Page) {
			res.Hits++
			p.Hit(a.Page)
		} else {
			res.Misses++
			p.Admit(a.Page)
		}
	}
	return res
}

// ReplayBatched replays the trace through a BP-Wrapper core with the given
// queue tuning, so hit records reach the policy in deferred batches exactly
// as they would in the live system. Used to verify that batching does not
// change hit ratios (the Figure 8 overlap).
func ReplayBatched(p replacer.Policy, t *Trace, queueSize, threshold int) Result {
	w := core.New(p, core.Config{
		Batching:       true,
		QueueSize:      queueSize,
		BatchThreshold: threshold,
	})
	s := w.NewSession()
	var res Result
	for _, a := range t.Accesses {
		res.Accesses++
		// Residency can be consulted directly: with a single session the
		// queue holds only hits, which never change residency.
		if p.Contains(a.Page) {
			res.Hits++
			s.Hit(a.Page, page.BufferTag{Page: a.Page})
		} else {
			res.Misses++
			s.Miss(a.Page, page.BufferTag{Page: a.Page})
		}
	}
	s.Flush()
	return res
}

// SweepRow is one (policy, capacity) hit-ratio measurement.
type SweepRow struct {
	Policy   string
	Capacity int
	Result   Result
}

// Sweep replays the trace under every named policy at every capacity,
// returning the hit-ratio grid used by the policy-comparison studies.
func Sweep(t *Trace, policies []string, capacities []int) ([]SweepRow, error) {
	var rows []SweepRow
	for _, name := range policies {
		for _, c := range capacities {
			p, ok := replacer.New(name, c)
			if !ok {
				return nil, fmt.Errorf("trace: unknown policy %q", name)
			}
			rows = append(rows, SweepRow{Policy: name, Capacity: c, Result: Replay(p, t)})
		}
	}
	return rows, nil
}
