package torture

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// TestStatsGaugesNameFields: every key of statsGauges is an integer field
// of buffer.Stats. A key that names no field would be skipped by a walk
// that never meets it, so a cut field must take its key along.
func TestStatsGaugesNameFields(t *testing.T) {
	typ := reflect.TypeOf(buffer.Stats{})
	for name := range statsGauges {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Errorf("statsGauges lists %s, which is no field of buffer.Stats", name)
		} else if k := f.Type.Kind(); k < reflect.Int || k > reflect.Uint64 {
			t.Errorf("statsGauges lists %s, a %s: decreasedTotal only compares integers", name, f.Type)
		}
	}
}

// TestStatsTotalsNeverDecrease: every cumulative total of Pool.Stats only
// grows while sessions on the pool hit, miss and fold their staged
// hits, and Stats is read in a loop; a total folded or summed twice,
// or read before a counter it depends on, shows up as a later read going
// backwards. Long mode runs it for 20 s instead of a quarter second.
func TestStatsTotalsNeverDecrease(t *testing.T) {
	runFor := time.Second / 4
	if LongMode() {
		runFor = 20 * time.Second
	}
	p := buffer.New(buffer.Config{
		Frames:        64,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Wrapper:       core.Config{Batching: true, QueueSize: 64, BatchThreshold: 32},
		Device:        storage.NewMemDevice(),
	})
	const pages = 48

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			s := p.NewSession()
			for !stop.Load() {
				for i := 0; i < 40; i++ {
					if ref, err := p.Get(s, page.NewPageID(tortureTable, uint64(rng.Intn(pages))+1)); err == nil {
						ref.Release()
					}
				}
				time.Sleep(time.Microsecond)
			}
			s.Flush()
		}(w)
	}
	prev := p.Stats()
	reads := 0
	for deadline := time.Now().Add(runFor); time.Now().Before(deadline); reads++ {
		st := p.Stats()
		if d := decreasedTotal(reflect.ValueOf(prev), reflect.ValueOf(st), ""); d != "" {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("Stats went backwards after %d reads: %s", reads, d)
		}
		prev = st
	}
	stop.Store(true)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
