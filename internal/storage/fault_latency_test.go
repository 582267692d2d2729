package storage

import (
	"testing"
	"time"

	"bpwrapper/internal/page"
)

// spikePattern drives n reads and records, per operation, whether a
// latency spike was injected (observed through the Spikes counter).
func spikePattern(d *FaultDevice, n int) []bool {
	var p page.Page
	pattern := make([]bool, n)
	prev := d.Spikes()
	for i := 0; i < n; i++ {
		_ = d.ReadPage(pid(uint64(i+1)), &p)
		now := d.Spikes()
		pattern[i] = now != prev
		prev = now
	}
	return pattern
}

// TestFaultSpikeSeededDeterminism: the same seed and op sequence injects
// spikes at exactly the same operations.
func TestFaultSpikeSeededDeterminism(t *testing.T) {
	mk := func() *FaultDevice {
		return NewFaultDevice(NewMemDevice(), FaultConfig{
			Seed: 77, SpikeProb: 0.3, SpikeLatency: time.Microsecond,
		})
	}
	a := spikePattern(mk(), 200)
	b := spikePattern(mk(), 200)
	spikes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spike pattern diverged at op %d despite identical seeds", i)
		}
		if a[i] {
			spikes++
		}
	}
	// ~30% of 200 ops; a deterministic sequence, so the exact count is
	// stable — just sanity-check it is in a plausible band.
	if spikes < 30 || spikes > 90 {
		t.Fatalf("%d spikes over 200 ops at p=0.3 is implausible", spikes)
	}
}

// TestFaultSpikeAndFailJointDeterminism: with spikes and failures both
// probabilistic, the joint (spike, fail) outcome sequence is a pure
// function of the seed — the two injections share one deterministic
// variate stream with a fixed per-op draw order (spike before fail).
func TestFaultSpikeAndFailJointDeterminism(t *testing.T) {
	run := func() (spikes []bool, fails []bool) {
		d := NewFaultDevice(NewMemDevice(), FaultConfig{
			Seed: 9, SpikeProb: 0.4, SpikeLatency: time.Microsecond, ReadFailProb: 0.5,
		})
		var p page.Page
		prev := d.Spikes()
		for i := 0; i < 200; i++ {
			err := d.ReadPage(pid(uint64(i+1)), &p)
			now := d.Spikes()
			spikes = append(spikes, now != prev)
			fails = append(fails, err != nil)
			prev = now
		}
		return spikes, fails
	}
	s1, f1 := run()
	s2, f2 := run()
	for i := range s1 {
		if s1[i] != s2[i] || f1[i] != f2[i] {
			t.Fatalf("joint spike/fail outcome diverged at op %d despite identical seeds", i)
		}
	}
	// Independence sanity: some ops spike without failing and some fail
	// without spiking — the draws are distinct variates, not one shared
	// coin.
	var spikeOnly, failOnly bool
	for i := range s1 {
		if s1[i] && !f1[i] {
			spikeOnly = true
		}
		if f1[i] && !s1[i] {
			failOnly = true
		}
	}
	if !spikeOnly || !failOnly {
		t.Fatalf("spike and fail outcomes are not independent (spikeOnly=%v failOnly=%v)", spikeOnly, failOnly)
	}
}

// TestFaultSpikeAndFailBothApply: an operation that rolls both a spike
// and a failure stalls first and then fails — both are counted.
func TestFaultSpikeAndFailBothApply(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{
		SpikeProb: 1, SpikeLatency: time.Microsecond, ReadFailProb: 1,
	})
	var p page.Page
	const ops = 10
	for i := 0; i < ops; i++ {
		if err := d.ReadPage(pid(uint64(i+1)), &p); err == nil {
			t.Fatalf("op %d succeeded with ReadFailProb 1", i)
		}
	}
	reads, _, _ := d.Injected()
	if reads != ops {
		t.Fatalf("injected read faults = %d, want %d", reads, ops)
	}
	if d.Spikes() != ops {
		t.Fatalf("spikes = %d, want %d (spike applies even when the op then fails)", d.Spikes(), ops)
	}
}

// TestFaultSpikeLatencyApplied: SpikeProb 1 really stalls operations for
// at least SpikeLatency.
func TestFaultSpikeLatencyApplied(t *testing.T) {
	const lat = 5 * time.Millisecond
	d := NewFaultDevice(NewMemDevice(), FaultConfig{SpikeProb: 1, SpikeLatency: lat})
	var p page.Page
	start := time.Now()
	const ops = 3
	for i := 0; i < ops; i++ {
		if err := d.ReadPage(pid(uint64(i+1)), &p); err != nil {
			t.Fatalf("read failed: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed < ops*lat {
		t.Fatalf("3 spiked ops took %v, want >= %v", elapsed, ops*lat)
	}
	if d.Spikes() != ops {
		t.Fatalf("spikes = %d, want %d", d.Spikes(), ops)
	}
}

// TestFaultSpikeWriteOnly: with SpikeWriteOnly, reads never stall but
// writes do, and counters reflect only applied spikes.
func TestFaultSpikeWriteOnly(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{
		SpikeProb: 1, SpikeLatency: time.Microsecond, SpikeWriteOnly: true,
	})
	var p page.Page
	for i := 0; i < 20; i++ {
		if err := d.ReadPage(pid(uint64(i+1)), &p); err != nil {
			t.Fatalf("read failed: %v", err)
		}
	}
	if d.Spikes() != 0 {
		t.Fatalf("reads injected %d spikes despite SpikeWriteOnly", d.Spikes())
	}
	for i := 0; i < 5; i++ {
		w := &page.Page{ID: pid(uint64(i + 1))}
		if err := d.WritePage(w); err != nil {
			t.Fatalf("write failed: %v", err)
		}
	}
	if d.Spikes() != 5 {
		t.Fatalf("spikes = %d, want 5 (writes only)", d.Spikes())
	}
}

// TestFaultSetSpikeRuntime: SetSpike swaps the rate and latency at
// runtime.
func TestFaultSetSpikeRuntime(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{})
	var p page.Page
	for i := 0; i < 10; i++ {
		_ = d.ReadPage(pid(uint64(i+1)), &p)
	}
	if d.Spikes() != 0 {
		t.Fatalf("spikes = %d before SetSpike, want 0", d.Spikes())
	}
	d.SetSpike(1, time.Microsecond)
	for i := 0; i < 10; i++ {
		_ = d.ReadPage(pid(uint64(i+1)), &p)
	}
	if d.Spikes() != 10 {
		t.Fatalf("spikes = %d after SetSpike(1), want 10", d.Spikes())
	}
	d.SetSpike(0, 0)
	before := d.Spikes()
	for i := 0; i < 10; i++ {
		_ = d.ReadPage(pid(uint64(i+1)), &p)
	}
	if d.Spikes() != before {
		t.Fatalf("spikes kept accruing after SetSpike(0)")
	}
}
