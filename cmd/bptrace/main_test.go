package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// The loop of TestSweepAnswersTheLoopBeforeNew: a cyclic scan over twice the
// frame budget, the canonical anti-LRU trace.
const (
	loopPages  = 512
	loopFrames = 256
	loopPasses = 8
)

// TestSweepAnswersTheLoopBeforeNew is the replay oracle for choosing a
// policy at start: on a 512-page loop over 256 frames 2Q evicts every page
// just before its reuse, while LIRS keeps a stable resident set. The trace
// goes through a file and back (-record, -replay) and through the -sweep
// table; each pass's hits are the difference of the sweeps over the first k
// and k-1 passes, since a replay of a prefix is a prefix of the replay.
func TestSweepAnswersTheLoopBeforeNew(t *testing.T) {
	var loop trace.Trace
	for pass := 0; pass < loopPasses; pass++ {
		for i := uint64(1); i <= loopPages; i++ {
			loop.Accesses = append(loop.Accesses, workload.Access{Page: page.NewPageID(77, i)})
		}
	}
	path := filepath.Join(t.TempDir(), "loop.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != loopPages*loopPasses || tr.DistinctPages() != loopPages {
		t.Fatalf("read back %d accesses over %d pages, want %d over %d", tr.Len(), tr.DistinctPages(), loopPages*loopPasses, loopPages)
	}

	// hits[k][policy] is the hits of a sweep over the first k passes.
	policies := []string{"2q", "lirs"}
	hits := make([]map[string]int64, loopPasses+1)
	hits[0] = map[string]int64{}
	for k := 1; k <= loopPasses; k++ {
		prefix := trace.Trace{Accesses: tr.Accesses[:k*loopPages]}
		rows, err := sweepTable(io.Discard, &prefix, policies, []int{loopFrames})
		if err != nil {
			t.Fatal(err)
		}
		hits[k] = map[string]int64{}
		for _, r := range rows {
			hits[k][r.Policy] = r.Result.Hits
		}
	}
	for k := 1; k <= loopPasses; k++ {
		twoQ := hits[k]["2q"] - hits[k-1]["2q"]
		lirs := hits[k]["lirs"] - hits[k-1]["lirs"]
		t.Logf("pass %d: 2q %d/%d, lirs %d/%d", k, twoQ, loopPages, lirs, loopPages)
		if twoQ != 0 {
			t.Errorf("pass %d: 2q hit %d of %d, want 0", k, twoQ, loopPages)
		}
		if k > 1 && lirs != 254 {
			t.Errorf("pass %d: lirs hit %d of %d, want 254 (0.49609375)", k, lirs, loopPages)
		}
	}
}
