package replacer

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bpwrapper/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/victims.golden from this build's victim sequences")

// goldenOps is how many trace accesses each golden case replays.
const goldenOps = 12000

// goldenTraces builds the access streams for one capacity: seeded uniform,
// Zipf 1.1, a scan followed by a loop a quarter larger than the buffer, and
// the three built-in workloads E8 and E9 run.
func goldenTraces(t *testing.T, capacity int) map[string][]PageID {
	c := uint64(capacity)
	traces := map[string][]PageID{
		"uniform": uniformTrace(11, goldenOps, 3*c+5),
	}
	r := rand.New(rand.NewSource(13))
	z := rand.NewZipf(r, 1.1, 1, 8*c)
	zipf := make([]PageID, goldenOps)
	for i := range zipf {
		zipf[i] = tid(z.Uint64())
	}
	traces["zipf"] = zipf
	scanloop := make([]PageID, goldenOps)
	for i := range scanloop {
		if n := uint64(i); n < 2*c {
			scanloop[i] = PageID(2<<44 | n) // one pass over a table of its own
		} else {
			scanloop[i] = tid(n % (c + c/4 + 1))
		}
	}
	traces["scanloop"] = scanloop
	for _, name := range []string{"tpcw", "tpcc", "tablescan"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := w.NewStream(0, 17)
		var ids []PageID
		var buf []workload.Access
		for len(ids) < goldenOps {
			buf = st.NextTxn(buf[:0])
			for _, a := range buf {
				ids = append(ids, a.Page)
			}
		}
		traces[name] = ids[:goldenOps]
	}
	return traces
}

// goldenRun replays trace through d, interleaving the buffer manager's other
// two calls — an Evict three steps in a hundred, a Remove of a page seen a
// little earlier another three — and returns the case's ledger line: how
// many pages the policy gave up, an FNV-64 of which and in what order, and
// an FNV-64 of the sorted resident set it ends with.
func goldenRun(t *testing.T, d drive, capacity int, trace []PageID) string {
	t.Helper()
	resident := make(map[PageID]bool, capacity)
	victims := fnv.New64a()
	evictions := 0
	gaveUp := func(kind byte, v PageID) {
		if !resident[v] {
			t.Fatalf("policy gave up %v, which is not resident", v)
		}
		delete(resident, v)
		evictions++
		var b [9]byte
		b[0] = kind
		for i := 0; i < 8; i++ {
			b[1+i] = byte(uint64(v) >> (8 * i))
		}
		victims.Write(b[:])
	}
	r := rand.New(rand.NewSource(int64(capacity)))
	for i, id := range trace {
		if resident[id] {
			d.hit(id)
		} else {
			if v, ok := d.admit(id); ok {
				gaveUp('a', v)
			}
			resident[id] = true
		}
		switch k := r.Intn(100); {
		case k < 3:
			if v, ok := d.evict(); ok {
				gaveUp('e', v)
			} else if len(resident) != 0 {
				t.Fatalf("step %d: Evict found nothing with %d pages resident", i, len(resident))
			}
		case k < 6:
			if old := trace[max(0, i-k*5)]; resident[old] {
				d.remove(old)
				delete(resident, old)
			}
		}
		if len(resident) > capacity {
			t.Fatalf("step %d: %d pages resident in a policy of %d", i, len(resident), capacity)
		}
	}
	ids := make([]PageID, 0, len(resident))
	for id := range resident {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	final := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(final, "%d,", uint64(id))
	}
	return fmt.Sprintf("evictions=%d victims=%016x residents=%016x", evictions, victims.Sum64(), final.Sum64())
}

// TestVictimSequenceGolden pins what every policy evicts, and when: each
// algorithm over six traces at three capacities, every victim in order and
// the resident set at the end, against testdata/victims.golden — driven by
// id, by slot, and by slot with the hits handed over in batches, as the
// pool's commits do (the drives are conformance.go's). A rewrite of a
// policy's insides must leave the file byte-identical under all three;
// regenerate it with -update only when an algorithm is meant to decide
// differently.
func TestVictimSequenceGolden(t *testing.T) {
	t.Run("by-id", func(t *testing.T) {
		compareGolden(t, idDriven)
	})
	t.Run("by-slot", func(t *testing.T) {
		compareGolden(t, slotDriven)
	})
	t.Run("by-batch", func(t *testing.T) {
		compareGolden(t, batchDriven)
	})
}

func compareGolden(t *testing.T, driven func(Policy) drive) {
	var out bytes.Buffer
	for _, capacity := range []int{7, 64, 512} {
		traces := goldenTraces(t, capacity)
		names := make([]string, 0, len(traces))
		for name := range traces {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, pol := range Names() {
			for _, tr := range names {
				p, _ := New(pol, capacity)
				line := goldenRun(t, driven(p), capacity, traces[tr])
				fmt.Fprintf(&out, "%s/%s/cap=%d %s\n", pol, tr, capacity, line)
			}
		}
	}
	path := filepath.Join("testdata", "victims.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range got {
		if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
			var w []byte
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("victims.golden line %d:\n got %s\nwant %s", i+1, got[i], w)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("victims.golden has %d lines, this build produces %d", len(wantLines), len(got))
	}
}
