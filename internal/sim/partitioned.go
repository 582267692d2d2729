package sim

import (
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// Partitioned implements the distributed-lock design the paper's Related
// Work rejects (Section V-A; Oracle Universal Server, ADABAS, Mr.LRU): the
// buffer is split into k hash partitions, each managed by an independent
// instance of the underlying algorithm. In a real system each partition
// gets its own lock (Config.LockPartitions models that). It lives here, not
// in package replacer, because nothing but the simulator and E10's
// hit-ratio replay (internal/bench) runs it: the production pool is one
// partition, as the paper argues. The price, which the
// paper emphasises, is that each partition sees only its hash slice of the
// access history:
//
//   - sequence-detecting algorithms (SEQ) never observe consecutive blocks
//     and lose scan resistance;
//   - ghost-based algorithms (2Q, LIRS, ARC) split their history and adapt
//     on fragments;
//   - hot pages still collide on whichever partition holds them.
//
// Pages route to partitions by a hash of their PageID, as Mr.LRU does, so
// a page always returns to the same partition.
type Partitioned struct {
	parts []replacer.Policy
	rr    int // round-robin cursor for Evict
	name  string
}

var _ replacer.Policy = (*Partitioned)(nil)

// NewPartitioned splits capacity across k instances built by sub. The
// capacity is divided as evenly as possible; every partition holds at
// least one page.
func NewPartitioned(capacity, k int, sub replacer.Factory) *Partitioned {
	if capacity <= 0 {
		panic("sim: partitioned: capacity must be positive")
	}
	if k < 1 || k > capacity {
		panic("sim: partitioned: k out of range [1, capacity]")
	}
	p := &Partitioned{parts: make([]replacer.Policy, k)}
	base, extra := capacity/k, capacity%k
	for i := range p.parts {
		c := base
		if i < extra {
			c++
		}
		p.parts[i] = sub(c)
	}
	p.name = "partitioned-" + p.parts[0].Name()
	return p
}

// Partition returns the index of the partition that owns id.
func (p *Partitioned) Partition(id page.PageID) int {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(p.parts)))
}

// Partitions returns the partition count.
func (p *Partitioned) Partitions() int { return len(p.parts) }

func (p *Partitioned) route(id page.PageID) replacer.Policy { return p.parts[p.Partition(id)] }

// Name implements Policy.
func (p *Partitioned) Name() string { return p.name }

// Cap implements Policy.
func (p *Partitioned) Cap() int {
	total := 0
	for _, part := range p.parts {
		total += part.Cap()
	}
	return total
}

// Len implements Policy.
func (p *Partitioned) Len() int {
	total := 0
	for _, part := range p.parts {
		total += part.Len()
	}
	return total
}

// Contains implements Policy.
func (p *Partitioned) Contains(id page.PageID) bool { return p.route(id).Contains(id) }

// Hit implements Policy: the access reaches only the owning partition.
func (p *Partitioned) Hit(id page.PageID) { p.route(id).Hit(id) }

// Admit implements Policy: the page enters its hash partition, which
// evicts locally when full — even if other partitions have free space,
// exactly the imbalance drawback the paper notes.
func (p *Partitioned) Admit(id page.PageID) (page.PageID, bool) {
	return p.route(id).Admit(id)
}

// Evict implements Policy: partitions are drained round-robin.
func (p *Partitioned) Evict() (page.PageID, bool) {
	for i := 0; i < len(p.parts); i++ {
		part := p.parts[(p.rr+i)%len(p.parts)]
		if v, ok := part.Evict(); ok {
			p.rr = (p.rr + i + 1) % len(p.parts)
			return v, true
		}
	}
	return 0, false
}

// Remove implements Policy.
func (p *Partitioned) Remove(id page.PageID) { p.route(id).Remove(id) }
