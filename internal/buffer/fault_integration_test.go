package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// TestEndToEndDurabilityUnderTransientFaults drives the pool through the
// full production fault stack — Retry(Checksum(Fault(Mem))) — under
// concurrent write traffic with random transient read/write faults, then
// evicts everything, drains with Close, and proves every acknowledged
// write survived to storage bit-for-bit. Run with -race; it exercises the
// quarantine, adoption, retry, and checksum paths concurrently.
func TestEndToEndDurabilityUnderTransientFaults(t *testing.T) {
	const (
		frames  = 16
		pages   = 64
		writers = 4
	)
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{
		Seed:          7,
		ReadFailProb:  0.05,
		WriteFailProb: 0.30,
		CorruptProb:   0.02,
	})
	check := storage.NewChecksumDevice(fault)
	retry := storage.NewRetryDevice(check, storage.RetryConfig{
		MaxAttempts: 12,
		Sleep:       func(time.Duration) { time.Sleep(time.Microsecond) }, // a yield, not the ladder's wall time
		Seed:        7,
	})
	p := New(Config{
		Frames:        frames,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        retry,
	})

	// Concurrent writers fill pages 1..pages with shifted stamps (content
	// the device would never synthesize on its own) while faults fire.
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			defer s.Flush()
			for i := g; i < pages; i += writers {
				id := pid(uint64(i + 1))
				ref, err := p.GetWrite(s, id)
				if err != nil {
					t.Errorf("GetWrite(%v): %v", id, err)
					return
				}
				var want page.Page
				want.Stamp(id + stampShift)
				copy(ref.Data(), want.Data[:])
				ref.MarkDirty()
				ref.Release()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Evict everything: read a disjoint page range larger than the pool.
	s := p.NewSession()
	for i := uint64(1000); i < 1000+3*frames; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatalf("evicting read: %v", err)
		}
		ref.Release()
	}
	s.Flush()

	// Stop injecting and drain whatever is still dirty or quarantined.
	fault.SetReadFailRate(0)
	fault.SetWriteFailRate(0)
	fault.SetCorruptRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every page must be durable with exactly the written bytes; read
	// through the checksum layer so verification is end-to-end.
	for i := uint64(1); i <= pages; i++ {
		var back page.Page
		if err := retry.ReadPage(pid(i), &back); err != nil {
			t.Fatalf("read-back of page %d: %v", i, err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d content lost or corrupted across faulty eviction", i)
		}
	}

	// The observability counters must have seen the storm.
	st := p.Stats()
	if st.Device.Retries == 0 {
		t.Fatal("no retries recorded despite 30% write-fault rate")
	}
	if st.Device.WriteErrors == 0 && st.Device.ReadErrors == 0 {
		t.Fatal("no device errors recorded despite fault injection")
	}
	if st.Quarantined != 0 {
		t.Fatalf("%d pages left quarantined after Close", st.Quarantined)
	}
}

// TestCorruptionDetectedThroughPool checks a corrupted device read of a
// previously written page surfaces as ErrCorruptPage through the pool
// (without a retry layer to heal it).
func TestCorruptionDetectedThroughPool(t *testing.T) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{})
	check := storage.NewChecksumDevice(fault)
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        check,
	})
	s := p.NewSession()

	dirtyPage(t, p, s, pid(1))
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// Evict page 1 so the next access reads the device.
	for i := uint64(10); i < 20; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	fault.SetCorruptRate(1)
	_, err := p.Get(s, pid(1))
	if !errors.Is(err, storage.ErrCorruptPage) || !storage.Retryable(err) {
		t.Fatalf("corrupted load err=%v, want retryable ErrCorruptPage", err)
	}
	// Heal the device: the page loads again and carries the written bytes.
	fault.SetCorruptRate(0)
	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatalf("pool did not recover from corruption: %v", err)
	}
	var got page.Page
	copy(got.Data[:], ref.Data())
	ref.Release()
	if !got.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("recovered page has wrong contents")
	}
}
