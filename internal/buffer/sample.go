// Access sampling for the control loop: the pool can spatially sample its
// access stream into a small lock-free ring that the controller drains to
// feed shadow ghost caches (policy scoring). Sampling must cost the hit
// path almost nothing, so the filter is one hash-and-compare and the
// record is one fetch-add plus one relaxed store; entries may be torn or
// overwritten under bursts, which is acceptable — the consumer is a
// statistical scorer, not an oracle.
package buffer

import (
	"sync/atomic"

	"bpwrapper/internal/page"
)

// sampleRing is a fixed-size power-of-two ring of sampled page ids.
// Producers claim slots with a fetch-add and store the id; the consumer
// chases the head with a cursor. No generation tags: a slot overwritten
// between claim and read simply yields the newer id, and a torn read of
// the head can at worst re-deliver or skip a few samples.
//
// It is not a metrics.Ring, the record ring under the flight recorder and
// the span rings, on purpose: a slot here is one word, which cannot tear;
// the reader drains from a cursor where that ring's snapshots every slot;
// and the two stamps that ring brackets a record with would triple the
// stores observe makes on the access path.
type sampleRing struct {
	rate uint64 // keep ids with mix64(id) % rate == 0
	mask uint64
	head atomic.Uint64
	slot []atomic.Uint64
}

// newSampleRing builds a ring of at least size slots keeping 1/rate of the
// page-id space.
func newSampleRing(rate, size int) *sampleRing {
	if rate < 1 {
		rate = 1
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &sampleRing{
		rate: uint64(rate),
		mask: uint64(n - 1),
		slot: make([]atomic.Uint64, n),
	}
}

// observe records id if it falls in the sampled slice of the id space.
// The filter is spatial (SHARDS-style): a fixed pseudo-random 1/rate of
// all PAGES is sampled, every access to them kept, so reuse distances
// within the sample mirror the full stream and a ghost cache of
// capacity/rate emulates a full-size cache.
func (r *sampleRing) observe(id page.PageID) {
	if mix64(uint64(id))%r.rate != 0 {
		return
	}
	h := r.head.Add(1) - 1
	r.slot[h&r.mask].Store(uint64(id))
}

// drain copies the samples recorded since cursor into out, returning the
// count and the next cursor. If the producer lapped the cursor, the oldest
// still-resident window is returned (older samples are lost, which the
// scorer tolerates).
func (r *sampleRing) drain(cursor uint64, out []page.PageID) (n int, next uint64) {
	head := r.head.Load()
	if head == cursor {
		return 0, cursor
	}
	if head-cursor > r.mask+1 {
		cursor = head - r.mask - 1
	}
	for cursor != head && n < len(out) {
		out[n] = page.PageID(r.slot[cursor&r.mask].Load())
		cursor++
		n++
	}
	return n, cursor
}

// EnableSampling turns on access sampling: a pseudo-random 1/rate of the
// page-id space is sampled into a ring of ringSize entries (rounded up to
// a power of two; 0 means 4096) that Samples drains. Calling it again
// replaces the ring (and resets the sample stream); rate <= 0 disables
// sampling.
func (p *Pool) EnableSampling(rate, ringSize int) {
	if rate <= 0 {
		p.sampler.Store(nil)
		return
	}
	if ringSize <= 0 {
		ringSize = 4096
	}
	p.sampler.Store(newSampleRing(rate, ringSize))
}

// Samples drains sampled page ids recorded since cursor into out,
// returning how many were written and the cursor to pass next time. Start
// with cursor 0. Single consumer assumed (the controller).
func (p *Pool) Samples(cursor uint64, out []page.PageID) (int, uint64) {
	r := p.sampler.Load()
	if r == nil {
		return 0, cursor
	}
	return r.drain(cursor, out)
}

// sampleAccess is the access-path hook: one nil check when sampling is
// off.
func (p *Pool) sampleAccess(id page.PageID) {
	if r := p.sampler.Load(); r != nil {
		r.observe(id)
	}
}
