package metrics

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestRingTornReadRefused stages, through the reader's sched point, the
// one interleaving the slot protocol exists for: a snapshot has loaded a
// slot's first stamp when a writer laps into the slot and gets as far as
// its begin stamp and half its payload. The old end stamp is still in
// place, so only a reader that checks begin last can tell.
func TestRingTornReadRefused(t *testing.T) {
	for _, width := range ringWidths {
		t.Run(fmt.Sprint("width", width), func(t *testing.T) {
			r := NewRing(8, width)
			for v := uint64(0); v < 8; v++ {
				r.Put(record(width, v))
			}
			// The staged writer: Put's fetch-add and its first 1 + width/2
			// stores, then descheduled; finish does the rest.
			lap := record(width, 8)
			var slot []uint64
			finish := func() {}
			windows := 0
			restore := sched.SetHook(func(pt sched.Point) {
				if pt != sched.RingSnapshot {
					return
				}
				if windows++; windows != 1 {
					return
				}
				i := r.seq.Add(1) - 1
				s := r.words[(i&r.mask)*r.stride:][:r.stride]
				s[0].Store(i + 1)
				for j := 0; j < width/2; j++ {
					s[1+j].Store(lap[j])
				}
				finish = func() {
					for j := width / 2; j < width; j++ {
						s[1+j].Store(lap[j])
					}
					s[len(s)-1].Store(i + 1)
				}
				for j := range s {
					slot = append(slot, s[j].Load())
				}
			})
			defer restore()

			before := r.Dropped() // 0: eight records in eight slots
			got := snapshot(r)
			if windows != 8 {
				t.Fatalf("snapshot opened %d read windows, want 8", windows)
			}
			if slot[0] != 9 || slot[len(slot)-1] != 1 || intact(slot[1:len(slot)-1]) {
				t.Fatalf("staging did not leave slot 0 mid-Put: %v", slot)
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

			// The writer finishes: the slot reads clean again.
			finish()
			got = snapshot(r)
			if p := got[8]; len(got) != 8 || !intact(p) || p[0] != lap[0] {
				t.Fatalf("after the writer finished: %d records, seq 8 = %v", len(got), p)
			}
			if r.torn.Load() != 1 {
				t.Fatalf("torn = %d after a clean snapshot, want 1", r.torn.Load())
			}
		})
	}
}

// TestRingConcurrentNeverMixes races writers against a snapshotting
// reader. Under -race it validates the all-atomic slots; every word of a
// record derives from one value, so a slot accepted with words of two
// writes fails it.
//
// The writers keep within window Puts of each other, so the others manage
// at most 3 × 2 × window = 48 Puts while one sits inside its own: nobody
// is lapped mid-Put, the ring's one accepted limit. Without that bound a
// preempted writer is lapped in microseconds here and the mix it leaves
// does turn up (seen within six -race runs).
//
// The reader yields once per snapshot pass. Without the yield, at one P it
// keeps the P until preemption, a time slice per turn, while the writers,
// each waiting on the slowest, advance a few Puts per slice: over a minute
// for the run. With it, no snapshot meets a writer mid-Put at one P;
// TestRingTornReadRefused stages that interleaving at every GOMAXPROCS.
func TestRingConcurrentNeverMixes(t *testing.T) {
	const writers, window, puts = 4, 8, 20000
	for _, width := range ringWidths {
		r := NewRing(64, width)
		var done [writers]atomic.Uint64
		ahead := func(i uint64) bool {
			for g := range done {
				if i >= done[g].Load()+window {
					return true
				}
			}
			return false
		}
		stop := make(chan struct{})
		var wg, reader sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := uint64(0); i < puts; i++ {
					for ahead(i) {
						runtime.Gosched()
					}
					r.Put(record(width, uint64(g)<<32|i))
					done[g].Add(1)
				}
			}(g)
		}
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Snapshot(func(seq uint64, p []uint64) {
					if !intact(p) {
						t.Errorf("width %d: seq %d returned mixing two writes: %v", width, seq, p)
					}
				})
				runtime.Gosched()
			}
		}()
		wg.Wait()
		close(stop)
		reader.Wait()
		if r.Seq() != writers*puts {
			t.Fatalf("width %d: %d records put, want %d", width, r.Seq(), writers*puts)
		}
		if r.torn.Load() == 0 {
			t.Logf("width %d: no snapshot met a writer mid-Put; the run proved nothing about mixes (TestRingTornReadRefused forces one)", width)
		}
	}
}
