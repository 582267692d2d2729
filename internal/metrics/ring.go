package metrics

import (
	"sync/atomic"

	"bpwrapper/internal/sched"
)

// Ring is the record ring under the obs flight recorder and the reqtrace
// span rings (DESIGN.md §10): a fixed number of slots, each a fixed number
// of payload words between two sequence stamps, every word atomic.
//
// A writer claims a sequence with one fetch-add and stores begin, the
// payload, end into the slot the sequence maps to; it never waits and the
// newest records overwrite the oldest. A reader loads a slot in the
// opposite order — end, the payload, begin — and keeps it only when the
// two stamps agree: the end stamp proves the write it names had finished
// before the payload was read, the begin stamp that no later write had
// started by the time it had been. A slot caught in between is refused
// and counted, never returned mixed.
//
// The one accepted limit: a writer descheduled inside Put while the other
// writers lap the whole ring can scribble over a newer, finished record
// whose stamps still agree. It takes a stall of Cap() Puts between two
// adjacent stores, and costs one wrong diagnostic record.
type Ring struct {
	mask   uint64
	stride uint64 // words per slot: begin, the payload, end
	seq    atomic.Uint64
	torn   atomic.Uint64 // snapshot reads that refused a slot
	words  []atomic.Uint64
}

// NewRing returns a ring of size slots (rounded up to a power of two,
// minimum 8) whose records are width words wide.
func NewRing(size, width int) *Ring {
	n := 8
	for n < size {
		n <<= 1
	}
	return &Ring{
		mask:   uint64(n - 1),
		stride: uint64(width + 2),
		words:  make([]atomic.Uint64, n*(width+2)),
	}
}

// Put appends one record, the ring's width of words from payload (a
// shorter payload panics), and returns its sequence. Safe for concurrent
// use and wait-free: one fetch-add plus width + 2 stores. payload is only
// read, so a caller's array stays on its stack.
func (r *Ring) Put(payload []uint64) uint64 {
	i := r.seq.Add(1) - 1
	s := r.words[(i&r.mask)*r.stride:][:r.stride]
	body := s[1 : len(s)-1]
	payload = payload[:len(body)]
	s[0].Store(i + 1)
	sched.Yield(sched.RingPut)
	for j := range body {
		body[j].Store(payload[j])
	}
	s[len(s)-1].Store(i + 1)
	return i
}

// Snapshot calls fn with the sequence and payload of every intact record,
// in slot order (not sequence order); payload is reused between calls.
// Slots never written are skipped; a slot a writer is inside is skipped
// and counted into Dropped.
func (r *Ring) Snapshot(fn func(seq uint64, payload []uint64)) {
	payload := make([]uint64, r.stride-2)
	for base := uint64(0); base < uint64(len(r.words)); base += r.stride {
		s := r.words[base:][:r.stride]
		end := s[len(s)-1].Load()
		if end == 0 {
			continue // never written
		}
		sched.Yield(sched.RingSnapshot)
		for j := range payload {
			payload[j] = s[1+j].Load()
		}
		if s[0].Load() != end {
			r.torn.Add(1)
			continue
		}
		fn(end-1, payload)
	}
}

// Seq returns the number of records ever put, overwritten ones included.
func (r *Ring) Seq() uint64 { return r.seq.Load() }

// Cap returns the number of slots.
func (r *Ring) Cap() int { return int(r.mask) + 1 }

// Dropped is the ring's data-loss figure: records overwritten before any
// reader could see them plus slots a snapshot refused as torn (counted
// once per snapshot that meets one).
func (r *Ring) Dropped() uint64 {
	over := uint64(0)
	if n, c := r.seq.Load(), r.mask+1; n > c {
		over = n - c
	}
	return over + r.torn.Load()
}
