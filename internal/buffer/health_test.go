package buffer

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// TestHealthQuarantinePressureDegrades walks a pool down the ladder on
// quarantine depth alone: a half-full quarantine leaves it Healthy, a full
// one makes it ReadOnly (misses shed with ErrOverloaded, resident pages —
// reads and writes — keep serving), and it is back to Healthy once the
// device recovers and the quarantine drains, with no page lost.
func TestHealthQuarantinePressureDegrades(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		QuarantineCap: 2,
	})
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	if st := p.Stats(); st.Health != Healthy {
		t.Fatalf("health=%v before any fault, want Healthy", st.Health)
	}
	dev.SetWriteFailRate(1)

	// Each miss evicts a dirty page whose write-back fails and parks it.
	ref, err := p.Get(s, pid(10))
	if err != nil {
		t.Fatalf("first miss under failing writes: %v", err)
	}
	ref.Release()
	if st := p.Stats(); st.Health != Healthy {
		t.Fatalf("health=%v at quarantine 1/2, want Healthy", st.Health)
	}
	ref, err = p.Get(s, pid(11))
	if err != nil {
		t.Fatalf("second miss: %v", err)
	}
	ref.Release()
	if st := p.Stats(); st.Health != ReadOnly {
		t.Fatalf("health=%v at quarantine 2/2, want ReadOnly", st.Health)
	}

	// Read-only: misses are shed without touching the device...
	readsBefore := mem.Stats().Reads
	if _, err := p.Get(s, pid(12)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss on read-only pool: err=%v, want ErrOverloaded", err)
	}
	if got := mem.Stats().Reads; got != readsBefore {
		t.Fatalf("shed miss still reached the device (%d reads, was %d)", got, readsBefore)
	}
	// ...but resident pages keep serving, including writes.
	ref, err = p.Get(s, pid(10))
	if err != nil {
		t.Fatalf("resident read on read-only pool: %v", err)
	}
	ref.Release()
	wref, err := p.GetWrite(s, pid(11))
	if err != nil {
		t.Fatalf("resident write on read-only pool: %v", err)
	}
	wref.MarkDirty()
	wref.Release()
	st := p.Stats()
	if st.Shed == 0 {
		t.Fatal("Stats().Shed did not count the shed miss")
	}
	if st.Health != ReadOnly {
		t.Fatalf("health=%v after the shed, want ReadOnly", st.Health)
	}

	// Recovery: drain the quarantine and the pool heals; the shed page
	// loads normally and nothing dirtied was lost.
	dev.SetWriteFailRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	if st := p.Stats(); st.Health != Healthy {
		t.Fatalf("health=%v after drain, want Healthy", st.Health)
	}
	ref, err = p.Get(s, pid(12))
	if err != nil {
		t.Fatalf("miss after recovery: %v", err)
	}
	ref.Release()
	for i := uint64(1); i <= 4; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatal(err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d lost across the degradation episode", i)
		}
	}
}

// faultPool builds a four-frame pool over a FaultDevice whose quarantine
// holds two pages.
func faultPool() (*Pool, *storage.MemDevice, *storage.FaultDevice) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        fault,
		QuarantineCap: 2,
	})
	return p, mem, fault
}

// sickenPool fills the pool's four frames with two resident pages and two
// dirty ones, fails the device's writes, and misses twice: each miss parks
// a dirty victim whose write-back failed: the pool stays Healthy at one
// parked page and goes ReadOnly at two. It returns the resident pages, the
// dirtied ones, and ids that were never loaded.
func sickenPool(t *testing.T, p *Pool, s *Session, fault *storage.FaultDevice) (resident, dirty, cold []page.PageID) {
	t.Helper()
	var ids []page.PageID
	for b := uint64(1); b <= 8; b++ {
		ids = append(ids, pid(b))
	}
	resident, dirty, cold = ids[:2], ids[2:4], ids[4:]
	get := func(id page.PageID) {
		t.Helper()
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
		ref.Release()
	}
	for _, id := range resident {
		get(id)
	}
	for _, id := range dirty {
		dirtyPage(t, p, s, id)
	}
	for _, id := range resident {
		get(id) // the dirty pages are now the LRU victims
	}
	fault.SetWriteFailRate(1)
	for i, want := range []HealthState{Healthy, ReadOnly} {
		get(cold[i])
		if st := p.Stats(); st.Health != want || st.Quarantined != i+1 {
			t.Fatalf("after %d parked write-backs: health=%v quarantined=%d, want %v", i+1, st.Health, st.Quarantined, want)
		}
	}
	return resident, dirty, cold[2:]
}

// TestHealthSickDeviceKeepsResidentsServing fails the device's writes
// until the quarantine fills and checks what the pool still does: it goes
// ReadOnly, sheds misses with ErrOverloaded before the device, and keeps
// serving its resident pages from memory.
func TestHealthSickDeviceKeepsResidentsServing(t *testing.T) {
	p, mem, fault := faultPool()
	s := p.NewSession()
	resident, _, cold := sickenPool(t, p, s, fault)

	reads := mem.Stats().Reads
	if _, err := p.Get(s, cold[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss with a full quarantine: err=%v, want ErrOverloaded", err)
	}
	if got := mem.Stats().Reads; got != reads {
		t.Fatalf("shed miss reached the device (%d reads, was %d)", got, reads)
	}
	for _, id := range resident {
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatalf("resident read of %v during the fault: %v", id, err)
		}
		ref.Release()
	}
	if st := p.Stats(); st.Health != ReadOnly || st.Shed != 1 {
		t.Fatalf("health=%v shed=%d, want ReadOnly and 1", st.Health, st.Shed)
	}
}

// TestHealthQuarantineRecovery closes the recovery loop: with the pool
// ReadOnly no miss reaches the device, so recovery comes from the flush
// that drains the quarantine once the device heals. The pool must then
// return to Healthy, admit misses again, and have lost nothing.
func TestHealthQuarantineRecovery(t *testing.T) {
	p, mem, fault := faultPool()
	s := p.NewSession()
	_, dirty, cold := sickenPool(t, p, s, fault)
	if _, err := p.Get(s, cold[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss while read-only: err=%v, want ErrOverloaded", err)
	}

	fault.SetWriteFailRate(0)
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("flush after healing: %v", err)
	}
	if st := p.Stats(); st.Health != Healthy || st.Quarantined != 0 {
		t.Fatalf("after healing and flushing: health=%v quarantined=%d, want Healthy, 0", st.Health, st.Quarantined)
	}
	ref, err := p.Get(s, cold[0])
	if err != nil {
		t.Fatalf("miss after recovery: %v", err)
	}
	ref.Release()
	for _, id := range dirty {
		var back page.Page
		if err := mem.ReadPage(id, &back); err != nil {
			t.Fatal(err)
		}
		if !back.VerifyStamp(id + stampShift) {
			t.Fatalf("page %v lost across the degradation episode", id)
		}
	}
}

// TestCloseWithinBudget bounds shutdown against a dead device: CloseWithin
// must give up within its budget (not sleep out the full retry ladder),
// lose nothing, and a later Close after recovery must succeed.
func TestCloseWithinBudget(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
	})
	s := p.NewSession()
	for i := uint64(1); i <= 3; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	dev.SetWriteFailRate(1)

	start := time.Now()
	err := p.CloseWithin(5 * time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("CloseWithin with a dead device returned nil")
	}
	if !strings.Contains(err.Error(), "close budget") {
		t.Fatalf("error does not name the exhausted budget: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("CloseWithin(5ms) took %v; budget did not bound the ladder", elapsed)
	}

	dev.SetWriteFailRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	for i := uint64(1); i <= 3; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatal(err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d lost across the bounded shutdown", i)
		}
	}
}

// TestSetReadOnlyForcesShedding pins the pool at the forced ReadOnly
// floor: misses shed with ErrOverloaded immediately, resident pages keep
// serving (reads and writes), and releasing the floor re-admits misses.
// The forced floor must also override a switched-off ladder — it is the
// drain hook, not a health verdict.
func TestSetReadOnlyForcesShedding(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		p := New(Config{
			Frames:        4,
			PolicyFactory: factoryOf("lru"),
			Device:        storage.NewMemDevice(),
		})
		if disabled {
			disableShedding(p)
		}
		s := p.NewSession()
		ref, err := p.Get(s, pid(1))
		if err != nil {
			t.Fatalf("disabled=%v: warm Get: %v", disabled, err)
		}
		ref.Release()

		p.SetReadOnly(true)
		if st := p.Stats().Health; st != ReadOnly {
			t.Fatalf("disabled=%v: health=%v after SetReadOnly, want ReadOnly", disabled, st)
		}
		if _, err := p.Get(s, pid(2)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("disabled=%v: miss under forced read-only: err=%v, want ErrOverloaded", disabled, err)
		}
		ref, err = p.Get(s, pid(1))
		if err != nil {
			t.Fatalf("disabled=%v: resident read under forced read-only: %v", disabled, err)
		}
		ref.Release()
		ref, err = p.GetWrite(s, pid(1))
		if err != nil {
			t.Fatalf("disabled=%v: resident write under forced read-only: %v", disabled, err)
		}
		ref.Data()[0]++
		ref.MarkDirty()
		ref.Release()
		shed := p.Stats().Shed
		if shed == 0 {
			t.Fatalf("disabled=%v: forced read-only shed nothing", disabled)
		}

		p.SetReadOnly(false)
		ref, err = p.Get(s, pid(2))
		if err != nil {
			t.Fatalf("disabled=%v: miss after releasing read-only: %v", disabled, err)
		}
		ref.Release()
		s.Flush()
		if err := p.Close(); err != nil {
			t.Fatalf("disabled=%v: Close: %v", disabled, err)
		}
	}
}

// disableShedding switches p's health ladder off for a test
// that fills the quarantine past the point where admission would refuse
// the misses that fill it. Call it before any traffic.
func disableShedding(p *Pool) *Pool {
	p.disabled = true
	return p
}
