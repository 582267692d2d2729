package metrics

import (
	"fmt"
	"testing"

	"bpwrapper/internal/sched"
)

// The two widths in use: the flight recorder's events and reqtrace's spans.
var ringWidths = []int{4, 6}

// record returns the width-word record whose every word derives from v,
// so a record mixing two writes cannot pass intact.
func record(width int, v uint64) []uint64 {
	p := make([]uint64, width)
	for j := range p {
		p[j] = v*0x9e3779b97f4a7c15 + uint64(j)
	}
	return p
}

func intact(p []uint64) bool {
	for j, w := range p {
		if w != p[0]+uint64(j) {
			return false
		}
	}
	return true
}

func snapshot(r *Ring) map[uint64][]uint64 {
	got := map[uint64][]uint64{}
	r.Snapshot(func(seq uint64, p []uint64) {
		got[seq] = append([]uint64(nil), p...)
	})
	return got
}

func TestRingRoundTripWrapAndRounding(t *testing.T) {
	for _, c := range []struct{ size, want int }{{0, 8}, {1, 8}, {8, 8}, {9, 16}, {100, 128}} {
		if got := NewRing(c.size, 4).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.size, got, c.want)
		}
	}
	for _, width := range ringWidths {
		r := NewRing(8, width)
		if len(snapshot(r)) != 0 || r.Seq() != 0 || r.Dropped() != 0 {
			t.Fatalf("width %d: empty ring not empty", width)
		}
		for v := uint64(0); v < 20; v++ {
			if seq := r.Put(record(width, v)); seq != v {
				t.Fatalf("width %d: Put returned seq %d, want %d", width, seq, v)
			}
		}
		got := snapshot(r)
		if len(got) != 8 || r.Seq() != 20 || r.Dropped() != 12 {
			t.Fatalf("width %d: kept %d of %d, dropped %d; want 8 of 20, 12",
				width, len(got), r.Seq(), r.Dropped())
		}
		for seq := uint64(12); seq < 20; seq++ {
			if fmt.Sprint(got[seq]) != fmt.Sprint(record(width, seq)) {
				t.Fatalf("width %d: seq %d read %v, want %v", width, seq, got[seq], record(width, seq))
			}
		}
	}
}

// TestRingTornReadRefused names the one interleaving the slot protocol
// exists for: a snapshot has loaded slot 0's end stamp when a writer laps
// into the slot and stops after its begin stamp (turns 0, 1, 0: the reader
// to its first read window, the writer to RingPut, the reader on). The old
// end stamp is still in place, so only a reader that checks begin last can
// tell.
func TestRingTornReadRefused(t *testing.T) {
	for _, width := range ringWidths {
		t.Run(fmt.Sprint("width", width), func(t *testing.T) {
			r := NewRing(8, width)
			for v := uint64(0); v < 8; v++ {
				r.Put(record(width, v))
			}
			before := r.Dropped() // 0: eight records in eight slots
			var got map[uint64][]uint64
			steps, err := sched.Run(sched.Replay(0, 1, 0),
				func() { got = snapshot(r) },
				func() { r.Put(record(width, 8)) })
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(steps[:2]) != fmt.Sprint([]sched.Step{{Thread: 0, Point: sched.RingSnapshot}, {Thread: 1, Point: sched.RingPut}}) {
				t.Fatalf("the writer was not stopped inside the reader's first window: %v", steps)
			}
			windows := 0
			for _, st := range steps {
				if st.Point == sched.RingSnapshot {
					windows++
				}
			}
			if windows != 8 {
				t.Fatalf("snapshot opened %d read windows, want 8", windows)
			}
			for seq, p := range got {
				if !intact(p) {
					t.Errorf("seq %d returned mixing two writes: %v", seq, p)
				}
			}
			if _, ok := got[0]; ok || len(got) != 7 {
				t.Fatalf("snapshot kept %d records (seq 0 kept: %v), want the 7 untouched ones", len(got), ok)
			}
			// One record overwritten by the claim, one slot refused.
			if d := r.Dropped() - before; d != 2 {
				t.Fatalf("Dropped rose by %d, want 2 (1 overwritten + 1 torn)", d)
			}
			if r.torn.Load() != 1 {
				t.Fatalf("torn = %d, want the refused slot counted once", r.torn.Load())
			}

			// The writer has finished: the slot reads clean again.
			got = snapshot(r)
			if p := got[8]; len(got) != 8 || !intact(p) || p[0] != record(width, 8)[0] {
				t.Fatalf("after the writer finished: %d records, seq 8 = %v", len(got), p)
			}
			if r.torn.Load() != 1 {
				t.Fatalf("torn = %d after a clean snapshot, want 1", r.torn.Load())
			}
		})
	}
}

// TestRingConcurrentNeverMixes runs four writers and a snapshotting reader
// as logical threads, round robin: in each turn a writer finishes one Put
// and stops inside the next, after its begin stamp, and the reader reads
// one slot and stops inside the next. So the reader keeps meeting writers
// mid-Put, at any GOMAXPROCS, and every record it keeps must be the one
// whose Put returned that sequence. Nobody is lapped mid-Put (the others
// manage three Puts while one sits inside its own), so the ring's one
// accepted limit does not arise.
func TestRingConcurrentNeverMixes(t *testing.T) {
	const writers, puts = 4, 500
	for _, width := range ringWidths {
		// Every slot written once, so that every slot a snapshot passes is a
		// read window: a pass over unwritten slots reaches no point.
		r := NewRing(64, width)
		wrote := map[uint64]uint64{} // sequence → the value its Put wrote
		for v := uint64(1 << 40); r.Seq() < 64; v++ {
			wrote[r.Put(record(width, v))] = v
		}
		finished, kept := 0, 0
		var bodies []func()
		for g := uint64(0); g < writers; g++ {
			bodies = append(bodies, func() {
				for i := uint64(0); i < puts; i++ {
					v := g<<32 | i
					wrote[r.Put(record(width, v))] = v
				}
				finished++
			})
		}
		bodies = append(bodies, func() {
			for finished < writers {
				r.Snapshot(func(seq uint64, p []uint64) {
					kept++
					if v, ok := wrote[seq]; !ok || fmt.Sprint(p) != fmt.Sprint(record(width, v)) {
						t.Errorf("width %d: seq %d returned %v, its Put wrote %v", width, seq, p, record(width, v))
					}
				})
			}
		})
		if _, err := sched.Run(sched.Replay(), bodies...); err != nil {
			t.Fatal(err)
		}
		if r.Seq() != 64+writers*puts {
			t.Fatalf("width %d: %d records put, want %d", width, r.Seq(), 64+writers*puts)
		}
		if r.torn.Load() == 0 || kept == 0 {
			t.Fatalf("width %d: the reader kept %d records and refused %d: it never met a writer mid-Put", width, kept, r.torn.Load())
		}
		t.Logf("width %d: the reader kept %d records and refused %d", width, kept, r.torn.Load())
	}
}
