package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestYieldNoHookIsNoop(t *testing.T) {
	if hook.Load() != nil {
		t.Fatal("hook installed at package init")
	}
	for pt := Point(0); pt < NumPoints; pt++ {
		Yield(pt) // must not panic
	}
}

func TestSetHookInstallsAndRestores(t *testing.T) {
	var calls atomic.Int64
	restore := SetHook(func(pt Point) {
		if pt >= NumPoints {
			t.Errorf("unexpected point %d", pt)
		}
		calls.Add(1)
	})
	if hook.Load() == nil {
		t.Fatal("hook not installed")
	}
	Yield(CoreCommitTry)
	Yield(BufReclaimClaim)
	restore()
	if hook.Load() != nil {
		t.Fatal("restore left hook installed")
	}
	Yield(CoreCommitTry)
	if got := calls.Load(); got != 2 {
		t.Fatalf("hook called %d times, want 2", got)
	}
}

func TestSetHookNestedRestore(t *testing.T) {
	var order []string
	var mu sync.Mutex
	note := func(s string) Hook {
		return func(Point) { mu.Lock(); order = append(order, s); mu.Unlock() }
	}
	r1 := SetHook(note("outer"))
	r2 := SetHook(note("inner"))
	Yield(CoreCommitApply)
	r2()
	Yield(CoreCommitApply)
	r1()
	Yield(CoreCommitApply)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "inner" || order[1] != "outer" {
		t.Fatalf("order = %v, want [inner outer]", order)
	}
}

func TestYieldConcurrentWithSwap(t *testing.T) {
	// Yield racing SetHook/restore must be memory-safe (the pointer swap is
	// atomic); run a burst under -race to prove it.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				Yield(CoreFCPublish)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		restore := SetHook(func(Point) {})
		restore()
	}
	close(stop)
	wg.Wait()
}
