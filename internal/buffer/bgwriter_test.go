package buffer

import (
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

func TestBackgroundWriterFlushesDirtyPages(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 16, PolicyFactory: factoryOf("lru"), Device: dev})
	s := p.NewSession()
	for i := uint64(1); i <= 8; i++ {
		r, err := p.GetWrite(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Data()[0] = byte(i)
		r.MarkDirty()
		r.Release()
	}
	if d := p.dirtyCount(); d != 8 {
		t.Fatalf("dirty count %d, want 8", d)
	}
	w := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: 5 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for p.dirtyCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w.Stop()
	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("dirty count %d after background writer", d)
	}
	st := w.Stats()
	if st.Written != 8 {
		t.Fatalf("written=%d, want 8", st.Written)
	}
	for i := uint64(1); i <= 8; i++ {
		var back page.Page
		if err := dev.ReadPage(pid(i), &back); err != nil {
			t.Fatal(err)
		}
		if back.Data[0] != byte(i) {
			t.Fatalf("page %d not written back", i)
		}
	}
}

func TestBackgroundWriterSkipsPinned(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()
	r, _ := p.GetWrite(s, pid(1))
	r.Data()[0] = 0x5A
	r.MarkDirty()
	// Pinned: the writer must leave it alone.
	w := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: 2 * time.Millisecond})
	time.Sleep(20 * time.Millisecond)
	if d := p.dirtyCount(); d != 1 {
		t.Fatalf("pinned dirty page count %d, want 1", d)
	}
	r.Release()
	deadline := time.Now().Add(2 * time.Second)
	for p.dirtyCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	w.Stop()
	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("dirty count %d after unpin", d)
	}
}

func TestBackgroundWriterFinalSweepOnStop(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 8, PolicyFactory: factoryOf("lru"), Device: dev})
	s := p.NewSession()
	w := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Hour}) // never ticks
	r, _ := p.GetWrite(s, pid(3))
	r.Data()[0] = 0x77
	r.MarkDirty()
	r.Release()
	w.Stop() // final sweep must flush
	var back page.Page
	dev.ReadPage(pid(3), &back)
	if back.Data[0] != 0x77 {
		t.Fatal("Stop's final sweep did not write back")
	}
}

func TestBackgroundWriterConcurrentWithTraffic(t *testing.T) {
	p := New(Config{
		Frames:        32,
		PolicyFactory: factoryOf("2q"),
		Wrapper:       core.Config{Batching: true},
		Device:        storage.NewMemDevice(),
	})
	w := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			defer s.Flush()
			for i := 0; i < 2000; i++ {
				id := pid(uint64((g + i*7) % 100))
				if i%3 == 0 {
					ref, err := p.GetWrite(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					ref.Data()[1] = byte(i)
					ref.MarkDirty()
					ref.Release()
				} else {
					ref, err := p.Get(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					ref.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	w.Stop()
	if st := w.Stats(); st.Written == 0 {
		t.Fatal("background writer wrote nothing under write traffic")
	}
}

// dirtyAll loads pages 1..n for writing and leaves every one dirty.
func dirtyAll(t *testing.T, p *Pool, s *Session, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		redirty(t, p, s, pid(uint64(i)))
	}
}

func redirty(t *testing.T, p *Pool, s *Session, id page.PageID) {
	t.Helper()
	r, err := p.GetWrite(s, id)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDirty()
	r.Release()
}

// TestBackgroundWriterSweepResumes re-dirties the first 64 frames between
// rounds — what any writing workload does to whichever frames come first —
// and requires a dirty frame further on to be cleaned all the same, within
// one lap of the pool at 64 pages a round. A sweep that restarts at frame 0
// spends every round's budget on those 64 and never gets there.
func TestBackgroundWriterSweepResumes(t *testing.T) {
	const frames, budget, far = 256, pagesPerRound, 100
	p := newTestPool(frames, core.Config{})
	s := p.NewSession()
	dirtyAll(t, p, s, frames)
	w := &BackgroundWriter{pool: p}

	for round := 1; round <= frames/budget+1; round++ {
		if written, failed := w.round(); written != budget || failed != 0 {
			t.Fatalf("round %d: written=%d failed=%d, want %d/0", round, written, failed, budget)
		}
		if p.frames[far].state.Load()&frameDirty == 0 {
			return
		}
		for i := 0; i < budget; i++ {
			redirty(t, p, s, page.PageID(p.frames[i].tagPage.Load()))
		}
	}
	t.Fatalf("dirty frame %d still unwritten after %d rounds of %d pages over %d frames",
		far, frames/budget+1, budget, frames)
}
