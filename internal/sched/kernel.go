package sched

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Time is virtual nanoseconds since a run started.
type Time int64

// event is a scheduled wakeup for a process.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	p   *Process
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Kernel is the cooperative executor, in the style of SimPy: each process
// is a goroutine, but exactly one runs at a time, handing the baton back
// (yield) whenever it sleeps, blocks, yields or finishes. internal/sim
// drives it by virtual time (NewKernel, Spawn, Run: the earliest wakeup
// runs next, ties in sequence); package-level Run, by a Schedule.
type Kernel struct {
	now              Time
	seq              uint64
	events           eventHeap
	running, spawned int // processes live, and ever spawned
	yield            chan struct{}

	// Under a Schedule: the thread holding the baton, the turns taken, the
	// last, the threads parked on a would-block acquire, a stalled turn.
	sch     Schedule
	cur     atomic.Pointer[Process]
	trace   []Step
	last    Step
	parked  []*Process
	stalled *Process
}

// NewKernel returns an empty simulation.
func NewKernel() *Kernel { return &Kernel{yield: make(chan struct{})} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Process is one thread. Its body runs as a goroutine that meets the kernel
// only through Sleep and Block or, under a Schedule, at Yield points and
// ContentionMutex acquires; between those it has the kernel to itself.
type Process struct {
	k      *Kernel
	resume chan struct{}
	id     int    // spawn order: the thread id a Schedule names
	gid    uint64 // goroutine id
	waits  any    // the lock it is parked on
}

// Spawn registers a process whose body starts at the current virtual time.
func (k *Kernel) Spawn(body func(p *Process)) *Process {
	p := &Process{k: k, resume: make(chan struct{}), id: k.spawned}
	k.spawned++
	k.running++
	go func() {
		p.gid = goid()
		p.wait()
		body(p)
		k.running--
		k.step(p, Done, true)
		k.yield <- struct{}{}
	}()
	k.schedule(p, 0)
	return p
}

// schedule enqueues a wakeup for p after delay d.
func (k *Kernel) schedule(p *Process, d Time) {
	k.seq++
	heap.Push(&k.events, event{at: k.now + d, seq: k.seq, p: p})
}

// Run executes events until the queue drains or virtual time passes
// horizon (0: none), and returns the final virtual time.
func (k *Kernel) Run(horizon Time) Time {
	for len(k.events) > 0 && len(k.trace) < maxSteps {
		e := k.next()
		if horizon > 0 && e.at > horizon {
			k.now = horizon
			break
		}
		k.now = e.at
		e.p.resume <- struct{}{}
		if k.sch == nil {
			<-k.yield
			continue
		}
		select {
		case <-k.yield:
		case <-time.After(stall):
			k.stalled = e.p
			return k.now
		}
	}
	return k.now
}

// next takes the earliest event or, under a Schedule, the named thread's.
func (k *Kernel) next() event {
	if k.sch == nil {
		return heap.Pop(&k.events).(event)
	}
	var ids []int // nothing sleeps under a Schedule: every event is due
	for _, e := range k.events {
		ids = append(ids, e.p.id)
	}
	slices.Sort(ids)
	id := k.sch.Next(k.last, ids)
	for i, e := range k.events {
		if e.p.id == id {
			return heap.Remove(&k.events, i).(event)
		}
	}
	panic(fmt.Sprintf("sched: schedule named thread %d, runnable are %v", id, ids))
}

func (p *Process) wait() {
	<-p.resume
	if p.k.sch != nil {
		p.k.cur.Store(p)
	}
}

// Sleep advances the process by d of virtual delay; at d = 0 it re-queues
// behind simultaneous events.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic("sched: negative sleep")
	}
	p.k.schedule(p, d)
	p.Block()
}

// Block hands the baton back and parks the process until it is scheduled:
// by a resource's Unblock, or by Sleep.
func (p *Process) Block() {
	p.k.yield <- struct{}{}
	p.wait()
}

// Unblock schedules a parked process to resume after delay d.
func (p *Process) Unblock(d Time) { p.k.schedule(p, d) }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.k.now }

// Step is one turn: Thread ran until it reached Point, Parked or Done.
type Step struct {
	Thread int
	Point  Point
}

// A Schedule names the thread that takes the next turn, given the turn
// that just ended (Thread -1 before the first) and the runnable thread ids,
// ascending.
type Schedule interface {
	Next(last Step, runnable []int) int
}

// maxSteps and stall bound a run, so a thread that spins forever, at points
// or between them, ends the run instead of the test.
const (
	maxSteps = 1 << 20
	stall    = 10 * time.Second
)

// Run runs each body as a logical thread (its id its index) on a Kernel
// driven by s and installed, like SetHook, until the run ends; other
// goroutines pass the points untouched. It returns the turns taken, and an
// error if threads are left (all parked on would-block acquires, past the
// step bound, or stalled in a turn), which are abandoned where they stand.
func Run(s Schedule, bodies ...func()) ([]Step, error) {
	k := &Kernel{yield: make(chan struct{}), sch: s, last: Step{Thread: -1}}
	for _, body := range bodies {
		k.Spawn(func(*Process) { body() })
	}
	defer install(&hooks{yield: k.yieldAt, park: k.park})()
	k.Run(0)
	switch {
	case k.stalled != nil:
		return k.trace, fmt.Errorf("sched: thread %d ran %v without reaching a point", k.stalled.id, stall)
	case len(k.events) == 0 && len(k.parked) > 0:
		return k.trace, k.deadlock()
	case k.running > 0:
		return k.trace, fmt.Errorf("sched: %d threads still running after %d turns", k.running, len(k.trace))
	}
	return k.trace, nil
}

// caller returns the thread holding the baton if it is calling, else nil.
func (k *Kernel) caller() *Process {
	if p := k.cur.Load(); p != nil && p.gid == goid() {
		return p
	}
	return nil
}

// step ends p's turn at pt. Unless p only retried an acquire that failed
// again (progress false), every parked thread becomes runnable to retry:
// p may have released what it waits on.
func (k *Kernel) step(p *Process, pt Point, progress bool) {
	k.last = Step{p.id, pt}
	k.trace = append(k.trace, k.last)
	if progress {
		for _, q := range k.parked {
			q.waits = nil
			k.schedule(q, 0)
		}
		k.parked = k.parked[:0]
	}
}

func (k *Kernel) yieldAt(pt Point) {
	if p := k.caller(); p != nil {
		k.step(p, pt, true)
		p.Sleep(0)
	}
}

func (k *Kernel) park(lock any, retry bool) bool {
	p := k.caller()
	if p == nil {
		return false
	}
	k.step(p, Parked, !retry)
	p.waits = lock
	k.parked = append(k.parked, p)
	p.Block()
	return true
}

// deadlock names each parked thread, its lock, and the lock's holders,
// inferred as the threads parked on other locks (uncontended acquires are
// unseen): exact for a lock-order cycle, wrong for a thread re-locking.
func (k *Kernel) deadlock() error {
	slices.SortFunc(k.parked, func(a, b *Process) int { return a.id - b.id })
	var b strings.Builder
	for _, p := range k.parked {
		var holders []int
		for _, q := range k.parked {
			if q.waits != p.waits {
				holders = append(holders, q.id)
			}
		}
		fmt.Fprintf(&b, "; thread %d waits on %p, held by thread %v", p.id, p.waits, holders)
	}
	return fmt.Errorf("sched: deadlock at turn %d, every thread parked on a would-block acquire%s", len(k.trace), b.String())
}

// goid returns the calling goroutine's id ("goroutine 123 [running]:").
func goid() (id uint64) {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

type order struct {
	ids  []int
	turn int
}

// Replay gives turn i to thread ids[i] when it is runnable; otherwise, and
// once ids is spent, to the first runnable thread after the last one,
// round robin.
func Replay(ids ...int) Schedule { return &order{ids: ids} }

func (o *order) Next(last Step, runnable []int) int {
	if o.turn++; o.turn <= len(o.ids) && slices.Contains(runnable, o.ids[o.turn-1]) {
		return o.ids[o.turn-1]
	}
	for _, id := range runnable {
		if id > last.Thread {
			return id
		}
	}
	return runnable[0]
}

type seeded uint64

// Seeded draws fresh priorities for the runnable threads every turn from a
// seeded xorshift stream, so the thread it names is uniform among them.
func Seeded(seed uint64) Schedule { s := seeded(seed | 1); return &s }

func (s *seeded) Next(_ Step, runnable []int) int {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return runnable[uint64(*s)%uint64(len(runnable))]
}
