package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHitpathCounters runs the deterministic E17 sweep and checks the
// acceptance shape directly: a fully-resident workload is served with
// zero lock acquisitions, every hit fast.
func TestHitpathCounters(t *testing.T) {
	rep, err := HitpathExperiment(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CounterRows) != 1 {
		t.Fatalf("got %d counter rows, want 1", len(rep.CounterRows))
	}
	for _, r := range rep.CounterRows {
		if r.Accesses != hitpathAccesses || r.Hits != hitpathAccesses {
			t.Errorf("%s: accesses=%d hits=%d, want %d fully-resident hits",
				r.Path, r.Accesses, r.Hits, hitpathAccesses)
		}
		if r.Fast != r.Hits {
			t.Errorf("fast=%d != hits=%d", r.Fast, r.Hits)
		}
		if r.BucketLockAcqs != 0 || r.FrameLockAcqs != 0 {
			t.Errorf("lock acquisitions bucket=%d frame=%d, want 0/0",
				r.BucketLockAcqs, r.FrameLockAcqs)
		}
		if r.Retries != 0 || r.Fallbacks != 0 {
			t.Errorf("single-threaded: retries=%d fallbacks=%d, want 0/0",
				r.Retries, r.Fallbacks)
		}
	}

	// The committed document is byte-stable: a second run must be equal.
	again, err := HitpathExperiment(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, again); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("hitpath counter sweep not deterministic across runs")
	}

	var decoded HitpathReport
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("baseline JSON does not round-trip: %v", err)
	}
	var txt bytes.Buffer
	PrintHitpath(&txt, rep)
	if !strings.Contains(txt.String(), "Lock-free hit path (E17)") {
		t.Fatalf("PrintHitpath missing header:\n%s", txt.String())
	}
}
