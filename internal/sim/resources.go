package sim

import "bpwrapper/internal/sched"

// Time is virtual nanoseconds since simulation start, the clock of the
// sched.Kernel the model runs on.
type Time = sched.Time

// Resource is a multi-server FIFO resource (CPU bank, disk array): up to
// `slots` processes hold it simultaneously; the rest queue in arrival
// order.
type Resource struct {
	free    int
	waiters []*sched.Process
}

// NewResource returns a resource with the given number of servers.
func NewResource(slots int) *Resource {
	if slots <= 0 {
		panic("sim: resource needs at least one slot")
	}
	return &Resource{free: slots}
}

// Acquire obtains one slot, blocking in FIFO order if none is free.
func (r *Resource) Acquire(p *sched.Process) {
	if r.free > 0 && len(r.waiters) == 0 {
		r.free--
		return
	}
	r.waiters = append(r.waiters, p)
	p.Block()
}

// Release returns one slot, handing it directly to the first waiter if any
// (the waiter resumes at the current virtual time).
func (r *Resource) Release(p *sched.Process) {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		w.Unblock(0)
		return
	}
	r.free++
}

// QueueLen reports the number of blocked waiters; used by tests.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// LockStats counts a simulated lock's activity in the same terms as
// metrics.ContentionMutex.
type LockStats struct {
	Acquisitions int64
	Contentions  int64 // blocking acquisitions
	TryFailures  int64
	WaitTime     Time // total blocked time
	HoldTime     Time // total held time
}

// add folds another lock's counters into s.
func (s *LockStats) add(o LockStats) {
	s.Acquisitions += o.Acquisitions
	s.Contentions += o.Contentions
	s.TryFailures += o.TryFailures
	s.WaitTime += o.WaitTime
	s.HoldTime += o.HoldTime
}

// Lock is the simulated replacement-algorithm lock: exclusive, FIFO, with
// contention accounting and an acquisition version used to model the
// processor-cache invalidation that limits the prefetching technique under
// contention (Section IV-D's explanation of pgPre's diminishing returns).
type Lock struct {
	held       bool
	waiters    []*sched.Process
	headWoken  bool // a wakeup for waiters[0] is already in flight
	acquiredAt Time
	version    uint64 // bumped on every acquisition
	stats      LockStats
	k          *sched.Kernel
}

// NewLock returns an unheld lock bound to the kernel's clock.
func NewLock(k *sched.Kernel) *Lock {
	return &Lock{k: k}
}

// Version returns the acquisition counter. A prefetching thread records it
// before requesting the lock; if it differs once the lock is granted,
// another processor mutated the protected data in between and the
// prefetched cache lines must be assumed invalidated.
func (l *Lock) Version() uint64 { return l.version }

// TryAcquire attempts a non-blocking acquisition, charging no wait time.
// Failures are counted as TryLock failures (the cheap, expected outcome in
// the batching protocol). TryAcquire *barges*: it may take a just-released
// lock ahead of parked waiters, exactly like a real trylock on a futex- or
// spin-based mutex — the property that lets BP-Wrapper's TryLock protocol
// break lock convoys.
func (l *Lock) TryAcquire(p *sched.Process) bool {
	if !l.held {
		l.grant()
		return true
	}
	l.stats.TryFailures++
	return false
}

// TryAcquireSilent is the fast path of a blocking acquisition: like
// TryAcquire but a failure is not a TryLock statistic (the caller will
// block and count a contention instead).
func (l *Lock) TryAcquireSilent() bool {
	if !l.held {
		l.grant()
		return true
	}
	return false
}

// AcquireBlocking parks the process in the lock's FIFO queue, counting one
// contention and accumulating wait time until the lock is acquired. On
// each release the head waiter is woken and must re-compete with bargers
// (sync.Mutex-style semantics); it re-parks if a TryAcquire stole the
// lock in between. The caller is responsible for processor bookkeeping
// (give up the CPU before calling, pay the dispatch cost after).
func (l *Lock) AcquireBlocking(p *sched.Process) {
	l.stats.Contentions++
	start := l.k.Now()
	l.waiters = append(l.waiters, p)
	for {
		p.Block()
		// Woken by Release: this process is the head waiter. Take the
		// lock unless a barger got there first.
		l.headWoken = false
		if !l.held {
			l.waiters = l.waiters[1:]
			l.stats.WaitTime += l.k.Now() - start
			l.grantBlocked()
			return
		}
	}
}

// Acquire obtains the lock, blocking if held. ctxSwitch is the dispatch
// latency charged to a blocked acquirer once the lock is granted (the
// context-switch cost of Section III).
func (l *Lock) Acquire(p *sched.Process, ctxSwitch Time) {
	if l.TryAcquireSilent() {
		return
	}
	l.AcquireBlocking(p)
	if ctxSwitch > 0 {
		p.Sleep(ctxSwitch)
	}
}

// NoteContention records one blocking acquisition; used by callers that
// implement the park/retry loop themselves (the machine model, which must
// interleave CPU scheduling with lock waits).
func (l *Lock) NoteContention() { l.stats.Contentions++ }

// AddWait accumulates blocked time measured by an external park/retry
// loop.
func (l *Lock) AddWait(d Time) { l.stats.WaitTime += d }

// WaitWoken parks the process in the lock's FIFO queue until a release
// wakes it. It does NOT acquire the lock — the caller retries (and may
// lose to a barger, in which case it calls WaitWoken again, rejoining at
// the tail).
func (l *Lock) WaitWoken(p *sched.Process) {
	l.waiters = append(l.waiters, p)
	p.Block()
	l.headWoken = false
	l.waiters = l.waiters[1:]
}

// grant marks an immediate (uncontended) acquisition.
func (l *Lock) grant() {
	l.held = true
	l.version++
	l.acquiredAt = l.k.Now()
	l.stats.Acquisitions++
}

// grantBlocked finishes an acquisition that went through the wait queue.
func (l *Lock) grantBlocked() {
	l.held = true
	l.version++
	l.acquiredAt = l.k.Now()
	l.stats.Acquisitions++
}

// Release frees the lock and wakes the head waiter, if any, to re-compete
// for it.
func (l *Lock) Release(p *sched.Process) {
	if !l.held {
		panic("sim: release of unheld lock")
	}
	l.stats.HoldTime += l.k.Now() - l.acquiredAt
	l.held = false
	if len(l.waiters) > 0 && !l.headWoken {
		l.headWoken = true
		l.waiters[0].Unblock(0)
	}
}

// Stats returns the lock's counters.
func (l *Lock) Stats() LockStats { return l.stats }
