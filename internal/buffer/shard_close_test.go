package buffer

import (
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// shardedGatePool builds a hash-partitioned pool whose device stack is
// mem ← fault ← gate, so tests can both inject write failures and hold a
// chosen page's write in flight at the device boundary.
func shardedGatePool(shards, frames int) (*Pool, *gateDevice, *storage.FaultDevice, *storage.MemDevice) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{})
	gate := newGateDevice(fault)
	p := New(Config{
		Frames:        frames,
		Shards:        shards,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        gate,
	})
	return p, gate, fault, mem
}

// idsInShard returns n page ids (block numbers counting up from start)
// that the pool routes to shard idx.
func idsInShard(p *Pool, idx, n int, start uint64) []page.PageID {
	var out []page.PageID
	for b := start; len(out) < n; b++ {
		id := pid(b)
		if p.ShardOf(id) == idx {
			out = append(out, id)
		}
	}
	return out
}

// TestCloseRacingBGWriterRoundOnAnotherShard pins down the cross-shard
// shutdown race: a background-writer round holds shard 0's quarantined
// write in flight at the device while Close runs concurrently. Shard 1's
// own write-backs must proceed independently in that window (its stripe
// locks are per shard), Close must wait for — not skip — the in-flight
// page, and after both finish the device must hold every page: neither
// the race nor the duplicate drain may lose a quarantined copy.
func TestCloseRacingBGWriterRoundOnAnotherShard(t *testing.T) {
	p, gate, fault, mem := shardedGatePool(2, 8) // 4 frames per shard
	s := p.NewSession()

	shard0 := idsInShard(p, 0, 6, 1)
	idA := shard0[0]                      // the page that will be quarantined
	shard1 := idsInShard(p, 1, 6, 10_000) // distinct block range, shard 1
	idB := shard1[0]

	dirtyPage(t, p, s, idA)
	dirtyPage(t, p, s, idB)

	// Park idA in shard 0's quarantine via a failed eviction write-back:
	// five more shard-0 pages overflow its four frames, LRU evicts dirty
	// idA, and the dead device rejects the write.
	fault.SetWriteFailRate(1)
	for _, id := range shard0[1:] {
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	if q := p.quarantineLen(); q != 1 {
		t.Fatalf("quarantined=%d after failed eviction on shard 0, want 1", q)
	}
	fault.SetWriteFailRate(0)

	// Hold the quarantine retry of idA in flight: the background writer's
	// round enters shard 0's drain and blocks inside the device write,
	// holding idA's per-shard write-back stripe.
	entered, release := gate.arm(idA)
	bg := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})
	<-entered

	// Cross-shard independence: while shard 0's write is held, evicting
	// dirty idB from shard 1 must complete its write-back — shard 1's
	// stripes are its own, so nothing serializes it behind shard 0.
	for _, id := range shard1[1:] {
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	var back page.Page
	if err := mem.ReadPage(idB, &back); err != nil {
		t.Fatalf("shard 1 write-back did not reach the device during shard 0's in-flight write: %v", err)
	}
	if !back.VerifyStamp(idB + stampShift) {
		t.Fatal("shard 1 wrote stale bytes during shard 0's in-flight write")
	}

	// Close racing the held round: its drain of shard 0 must queue behind
	// the in-flight write on the stripe, not complete early and not drop
	// the page.
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while shard 0's quarantined write was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}
	bg.Stop()

	// Nothing lost anywhere: the in-flight copy of idA landed exactly once
	// (Close's duplicate snapshot write was skipped by re-validation), and
	// every page of both shards is durable at its last written version.
	if q := p.quarantineLen(); q != 0 {
		t.Fatalf("%d entries left quarantined after Close", q)
	}
	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("%d dirty pages left after Close", d)
	}
	if !mustRead(t, mem, idA).VerifyStamp(idA + stampShift) {
		t.Fatal("shard 0's quarantined page lost across the Close/bgwriter race")
	}
	if !mustRead(t, mem, idB).VerifyStamp(idB + stampShift) {
		t.Fatal("shard 1's page lost across the Close/bgwriter race")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustRead fetches id from the raw memory device.
func mustRead(t *testing.T, mem *storage.MemDevice, id page.PageID) *page.Page {
	t.Helper()
	var pg page.Page
	if err := mem.ReadPage(id, &pg); err != nil {
		t.Fatalf("device read of %v: %v", id, err)
	}
	return &pg
}
