package storage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/page"
)

func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

func TestMemDeviceStampOnFirstRead(t *testing.T) {
	d := NewMemDevice()
	var p page.Page
	if err := d.ReadPage(pid(7), &p); err != nil {
		t.Fatal(err)
	}
	if !p.VerifyStamp(pid(7)) {
		t.Fatal("unwritten page did not return its deterministic stamp")
	}
}

func TestMemDeviceWriteReadBack(t *testing.T) {
	d := NewMemDevice()
	var w page.Page
	w.Stamp(pid(3))
	w.Data[0] = 0xAB
	w.Data[page.Size-1] = 0xCD
	if err := d.WritePage(&w); err != nil {
		t.Fatal(err)
	}
	var r page.Page
	if err := d.ReadPage(pid(3), &r); err != nil {
		t.Fatal(err)
	}
	if r.Data != w.Data {
		t.Fatal("read-back differs from written data")
	}
	if d.Len() != 1 {
		t.Fatalf("Len()=%d", d.Len())
	}
}

func TestMemDeviceWriteIsolation(t *testing.T) {
	// Mutating the caller's page after WritePage must not affect the store.
	d := NewMemDevice()
	var w page.Page
	w.Stamp(pid(5))
	d.WritePage(&w)
	w.Data[10] = ^w.Data[10]
	var r page.Page
	d.ReadPage(pid(5), &r)
	if r.Data[10] == w.Data[10] {
		t.Fatal("device aliases caller memory")
	}
}

func TestMemDeviceInvalidPage(t *testing.T) {
	d := NewMemDevice()
	var p page.Page
	if err := d.ReadPage(page.InvalidPageID, &p); err != ErrInvalidPage {
		t.Fatalf("read invalid: %v", err)
	}
	if err := d.WritePage(&p); err != ErrInvalidPage {
		t.Fatalf("write invalid: %v", err)
	}
}

func TestMemDeviceConcurrent(t *testing.T) {
	d := NewMemDevice()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p page.Page
			for i := uint64(0); i < 500; i++ {
				id := pid(uint64(g)*1000 + i)
				p.Stamp(id)
				if err := d.WritePage(&p); err != nil {
					t.Error(err)
					return
				}
				var r page.Page
				if err := d.ReadPage(id, &r); err != nil {
					t.Error(err)
					return
				}
				if !r.VerifyStamp(id) {
					t.Errorf("corrupt read-back for %v", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := d.Stats()
	if s.Reads != 4000 || s.Writes != 4000 {
		t.Fatalf("stats %+v", s)
	}
}

// TestMemDeviceRewriteInPlace: a page's later writes reuse its first
// write's storage, and a reader racing them never sees half of one write and
// half of another.
func TestMemDeviceRewriteInPlace(t *testing.T) {
	d := NewMemDevice()
	w := page.Page{ID: pid(9)}
	if err := d.WritePage(&w); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { d.WritePage(&w) }); n != 0 {
		t.Errorf("rewrite of an existing page allocates %v times", n)
	}

	const writes = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			for j := range w.Data {
				w.Data[j] = byte(i)
			}
			if err := d.WritePage(&w); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var r page.Page
	for running := true; running; {
		select {
		case <-done:
			running = false // one more read, of the last write
		default:
		}
		if err := d.ReadPage(pid(9), &r); err != nil {
			t.Fatal(err)
		}
		for j := range r.Data {
			if r.Data[j] != r.Data[0] {
				t.Fatalf("torn page: byte 0 is %d, byte %d is %d", r.Data[0], j, r.Data[j])
			}
		}
	}
	if r.Data[0] != byte(writes%256) {
		t.Fatalf("last read saw write %d, want %d", r.Data[0], byte(writes%256))
	}
	if d.Len() != 1 {
		t.Fatalf("Len()=%d", d.Len())
	}
}

func TestSimDiskLatency(t *testing.T) {
	d := NewSimDisk(NewMemDevice(), SimDiskConfig{ReadLatency: 2 * time.Millisecond})
	var p page.Page
	start := time.Now()
	for i := uint64(0); i < 5; i++ {
		if err := d.ReadPage(pid(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("5 serial reads took %v, want >= 10ms", elapsed)
	}
	if d.Stats().Reads != 5 {
		t.Fatalf("reads=%d", d.Stats().Reads)
	}
}

func TestSimDiskParallelism(t *testing.T) {
	// With 8 spindles, sixteen 5 ms reads should take ~10 ms, not ~80 ms.
	d := NewSimDisk(NewMemDevice(), SimDiskConfig{ReadLatency: 5 * time.Millisecond})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2*simDiskSpindles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var p page.Page
			d.ReadPage(pid(uint64(i)), &p)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		t.Fatalf("parallelism bound not enforced: %v", elapsed)
	}
	if elapsed > 35*time.Millisecond {
		t.Fatalf("reads appear fully serialized: %v", elapsed)
	}
}

func TestSimDiskDelegatesData(t *testing.T) {
	mem := NewMemDevice()
	d := NewSimDisk(mem, SimDiskConfig{ReadLatency: time.Microsecond})
	var w page.Page
	w.Stamp(pid(9))
	w.Data[0] = 0x42
	if err := d.WritePage(&w); err != nil {
		t.Fatal(err)
	}
	var r page.Page
	if err := d.ReadPage(pid(9), &r); err != nil {
		t.Fatal(err)
	}
	if r.Data != w.Data {
		t.Fatal("SimDisk does not delegate to backing store")
	}
}

func TestNullDevice(t *testing.T) {
	d := NewNullDevice()
	var p page.Page
	if err := d.ReadPage(pid(1), &p); err != nil {
		t.Fatal(err)
	}
	if !p.VerifyStamp(pid(1)) {
		t.Fatal("NullDevice read is not the deterministic stamp")
	}
	if err := d.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	var bad page.Page
	if err := d.ReadPage(page.InvalidPageID, &bad); err != ErrInvalidPage {
		t.Fatalf("invalid read: %v", err)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRetryDefaultSleepRunsTheLadder: with no Sleep injected, the retry
// device sleeps out every back-off with time.Sleep and surfaces the last
// error once the attempts run out.
func TestRetryDefaultSleepRunsTheLadder(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{ReadFailProb: 1})
	rd := NewRetryDevice(fd, RetryConfig{MaxAttempts: 3}) // about 1.5ms of sleep
	var p page.Page
	if err := rd.ReadPage(pid(1), &p); !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v, want ErrTransient", err)
	}
	reads, _, _ := fd.Injected()
	if reads != 3 {
		t.Fatalf("backing saw %d attempts, want all 3", reads)
	}
}
