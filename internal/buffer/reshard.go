// Online resharding: the pool's shard topology is an atomically-swappable
// shardSet, and Reshard grows or shrinks the shard count under live traffic
// with incremental page migration — no stop-the-world.
//
// The protocol (DESIGN.md §14):
//
//  1. Build the new topology: a fresh shardSet of n shards splitting the
//     same total frame budget, each with its own policy instance (from the
//     pool's PolicyFactory), wrapper, page table, free list and quarantine.
//  2. Seal the old shards: their miss path refuses new loads with
//     errResharded (hits on still-resident pages keep serving).
//  3. Publish: one atomic pointer swap makes every subsequent access route
//     through the new set. The new set's prev pointer keeps the old set
//     reachable for the double-lookup window.
//  4. Migrate: a driver session faults every old resident through the new
//     topology. The new set's miss path, before touching the device, steals
//     the page from the old owner shard (stealPage): it waits out in-flight
//     old loads, eviction writes and pins, claims the frame, and carries the
//     bytes AND the dirty bit across, so an unflushed write is never lost
//     and never read stale from the device. Quarantined-only pages (parked
//     copies whose write-back has not been confirmed) are handed over
//     map-to-map under the old write-back stripe, which also serializes
//     against any in-flight write of the same page.
//  5. Finalize: once the old set holds no residents, no quarantined copies,
//     and every frame is back on its free list, its shards' ShardStats are
//     added into the pool's retired totals (Stats.Retired), it is marked retired
//     and the prev pointer is cleared. The pool keeps no reference to it:
//     the GC reclaims it, frame slab included, once the last session bound
//     to it rebinds, and hits such a session staged there fold straight
//     into the totals (Session.Flush).
//
// Pinned pages never block traffic, only the migration of that one page:
// stealPage waits for the pin to drain while every other page moves on.
package buffer

import (
	"errors"
	"fmt"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"sync/atomic"
)

// errResharded is the internal retry signal: the operation routed to a
// shard that was sealed by a topology swap between the routing decision and
// the shard operation. Pool.Get/GetWrite retry against the freshly loaded
// set, so callers never observe it.
var errResharded = errors.New("buffer: shard sealed by reshard, retry against the new topology")

// shardSet is one immutable shard topology: the epoch stamps it, shards is
// fixed at construction, and only prev (cleared exactly once when the
// migration out of the previous topology completes) and retired mutate.
type shardSet struct {
	epoch  uint64
	shards []*shard

	// retired is set, under the pool's retireMu, when the finalize step
	// folds this drained set into the pool's retired totals.
	retired bool

	// prev points at the still-draining previous topology while a
	// migration is in flight, nil otherwise. The miss path consults it for
	// the double-lookup window; pool-wide sweeps (flush, bgwriter, stats)
	// walk both sets so no dirty page is invisible mid-migration.
	prev atomic.Pointer[shardSet]
}

// indexFor routes a page id to its owning shard within this set — the same
// mix64 high-bits keying the fixed topology used, so a one-shard set skips
// the hash entirely and epoch 0 routes bit-for-bit like the old []shard.
func (ss *shardSet) indexFor(id page.PageID) int {
	if len(ss.shards) == 1 {
		return 0
	}
	return int((mix64(uint64(id)) >> 32) % uint64(len(ss.shards)))
}

// shardFor returns the shard owning id in this set.
func (ss *shardSet) shardFor(id page.PageID) *shard { return ss.shards[ss.indexFor(id)] }

// Reshard changes the pool's shard count to n under live traffic,
// returning once the migration is complete and the old topology fully
// drained; the new shards' policies come from the pool's factory
// (Config.PolicyFactory, or the one SwapPolicy last installed). Reshard
// serializes with itself, with SwapPolicy and with SetReadOnly, so a
// drain that lowers the read-only floor waits out an in-flight reshard;
// concurrent traffic keeps flowing throughout — the only waits are
// per-page (a pinned page delays its own migration until unpinned).
func (p *Pool) Reshard(n int) error {
	if n <= 0 {
		return fmt.Errorf("buffer: Reshard(%d): shard count must be positive", n)
	}
	if n > p.frames {
		return fmt.Errorf("buffer: Reshard(%d) exceeds Frames %d", n, p.frames)
	}
	p.reshardMu.Lock()
	defer p.reshardMu.Unlock()
	old := p.cur.Load()
	if len(old.shards) == n {
		return nil
	}
	if p.forcedRO.Load() {
		// Migration loads pages through the new set's miss path, which a
		// read-only floor sheds; resharding a drained pool is pointless
		// anyway.
		return errors.New("buffer: cannot reshard a pool forced read-only")
	}

	next := p.newShardSet(n, old.epoch+1)
	next.prev.Store(old)
	for _, sh := range old.shards {
		sh.sealed.Store(true)
	}
	p.cur.Store(next)
	p.registerRecorders(next)

	// Migrate until the old topology is empty. Each pass faults the old
	// residents through the new set (whose miss path steals bytes + dirty
	// bit from the old owner), then hands over quarantined-only copies.
	// Passes repeat because in-flight pre-seal loads can still install
	// into old shards, evictions can park new quarantine entries, and a
	// degraded new shard can transiently shed a migration miss.
	ms := p.NewSession()
	for pass := 0; ; pass++ {
		for _, osh := range old.shards {
			for _, id := range osh.residentIDs() {
				if ref, err := p.Get(ms, id); err == nil {
					ref.Release()
				}
			}
			for _, id := range osh.quarantineIDs() {
				osh.handOverQuarantine(id, next.shardFor(id))
			}
		}
		done := true
		for _, osh := range old.shards {
			if !osh.drained() {
				done = false
				break
			}
		}
		if done {
			break
		}
		backoff(pass)
	}
	ms.Flush()

	// Finalize: fold the old shards into the retired totals and close the
	// double-lookup window. Both under retireMu so a Stats snapshot can
	// never count an old shard both as draining and as retired, and a
	// late Flush lands either before the fold or in the totals.
	p.retireMu.Lock()
	for _, sh := range old.shards {
		p.retired.add(shardStatsOf(sh))
	}
	old.retired = true
	next.prev.Store(nil)
	p.retireMu.Unlock()
	p.reshards.Add(1)
	return nil
}

// SwapPolicy hot-swaps every current shard's replacement policy to
// instances built by factory, migrating each policy's resident set into
// the new instance (in eviction order, so the pages the old policy valued
// most are the ones the new policy saw admitted last). The factory also
// becomes the pool's policy recipe: later reshards build the new policy.
// It serializes with Reshard, so a swap never races a topology change.
//
// A factory whose policy has less capacity than a shard's present one is
// refused (core.Wrapper.SwapPolicy): the shards before that one keep the new
// policy, the rest their old ones, and the recipe stays as it was.
func (p *Pool) SwapPolicy(factory replacer.Factory) (from, to string, err error) {
	if factory == nil {
		return "", "", errors.New("buffer: SwapPolicy requires a factory")
	}
	p.reshardMu.Lock()
	defer p.reshardMu.Unlock()
	for _, sh := range p.cur.Load().shards {
		if from, to, err = sh.wrapper.SwapPolicy(factory); err != nil {
			return from, to, err
		}
	}
	p.factory = factory
	return from, to, nil
}

// ---------------------------------------------------------------------------
// Old-shard migration primitives (called only on sealed shards).

// stealPage extracts page id from a sealed shard for installation in the
// new topology: it waits out an in-flight load or eviction write-back,
// claims the frame (waiting out pins and writers), copies the bytes into
// dst, and reports whether the page was dirty — an unconfirmed quarantined
// copy counts as dirty, so the new shard re-writes rather than trusting a
// possibly-stale device.
// The final write-back-stripe lock/unlock waits out any in-flight old
// write of this page, so a later write from the new topology can never be
// overtaken (and silently reverted) by an old one.
func (sh *shard) stealPage(id page.PageID, dst *page.Page) (dirty, found bool) {
	// A pinned or writer-held frame is waited out: only this page's
	// migration stalls; the reshard keeps draining other pages.
	f, s, _ := sh.claimMapped(id, func(spins int) error { backoff(spins); return nil })
	if f != nil {
		*dst = f.data
		sh.freeFrame(f)
		dirty, found = s&frameDirty != 0, true
	} else if q := sh.quarantineTake(id); q != nil {
		// Not resident: an evicted-dirty page may still be parked in the
		// quarantine with its write-back unconfirmed. Adopt it as dirty.
		*dst = *q
		dirty, found = true, true
	}
	// Serialize with any in-flight old write-back of this page: after this
	// lock/unlock, no old write of id is still in the air, so the new
	// topology's future write of id cannot be reverted by a stale one.
	l := sh.wbLock(id)
	l.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier
	l.Unlock()
	if found {
		sh.migratedOut.Add(1)
	}
	return dirty, found
}

// residentIDs snapshots the ids currently mapped by the shard's page
// table.
func (sh *shard) residentIDs() []page.PageID {
	var ids []page.PageID
	sh.walkTable(func(id page.PageID, _ *Frame) { ids = append(ids, id) })
	return ids
}

// quarantineIDs snapshots the ids currently parked in the quarantine.
func (sh *shard) quarantineIDs() []page.PageID {
	sh.quarMu.Lock()
	ids := make([]page.PageID, 0, len(sh.quarantine))
	for id := range sh.quarantine {
		ids = append(ids, id)
	}
	sh.quarMu.Unlock()
	return ids
}

// handOverQuarantine moves a quarantined-only copy of id from this sealed
// shard into dst's quarantine, losslessly: the old write-back stripe is
// held across the whole handover, so an in-flight old write either
// completes first (resolving the entry — nothing to move) or, arriving
// later, revalidates against the now-empty map and skips. A page with a
// frame or an op in flight is left alone: a pre-seal load is about to adopt
// the copy, or has (the id was snapshotted before), and stealPage migrates
// the frame; an eviction whose write failed is parking its bytes, which a
// later pass moves. On a sealed shard a page with neither frame nor op can
// gain neither, so what is moved is the only copy.
func (sh *shard) handOverQuarantine(id page.PageID, dst *shard) {
	l := sh.wbLock(id)
	l.Lock()
	defer l.Unlock()
	b := sh.bucketFor(id)
	b.w.mu.Lock()
	live := sh.lookupLocked(b, id) != nil || b.w.opLocked(id) != nil
	b.w.mu.Unlock()
	if live {
		return
	}
	sh.quarMu.Lock()
	c := sh.quarantine[id]
	delete(sh.quarantine, id)
	delete(sh.quarTrace, id)
	sh.quarUnlock()
	if c != nil {
		// The destination cap is a soft bound (same as concurrent
		// evictions): durability wins over the bound during a handover.
		dst.quarantinePut(id, c, nil)
	}
}

// drained reports whether this sealed shard is fully migrated: nothing
// resident, nothing quarantined, no load or eviction write in flight, and
// every frame back on the free list (a frame mid-claim or still pinned
// keeps it false).
func (sh *shard) drained() bool {
	sh.freeMu.Lock()
	free := len(sh.freeList)
	sh.freeMu.Unlock()
	if free != len(sh.frames) || sh.quarantineLen() != 0 {
		return false
	}
	n := 0
	inflight := sh.walkTable(func(page.PageID, *Frame) { n++ })
	return n == 0 && !inflight
}
