// Package reqtrace is the always-on request-tracing layer (DESIGN.md §14).
//
// BP-Wrapper's whole trick is deferral: batching and flat combining move a
// request's replacement work onto another thread's combiner run, which is
// exactly what makes tail latency unattributable with aggregate metrics
// alone — the flight recorder says how much lock wait exists, not which
// request paid it or who did its work. reqtrace answers that with
// per-request trace IDs and phase-stamped spans (bucket probe, pin, lock
// wait, combiner enqueue→apply, policy batch, device I/O, quarantine park)
// written into lock-free span rings — metrics.Ring, the record ring the obs
// flight recorder is built on too.
//
// Overhead discipline — the layer must fit the pool's ≤3% observability
// budget on resident hits, so sampling is decided per request with
// session-local state and no clock reads on the untraced path:
//
//   - Head sampling: one request in SampleEvery per session carries a trace
//     ID and stamps every phase. The sampling counter lives in the
//     session-owned Active, so untraced hits cost one increment and one
//     branch — no atomics, no allocation, no time.Now.
//   - Tail keep: requests that touch a slow phase (device I/O, forced
//     lock, quarantine) arm lazily — the slow phase allocates the trace ID
//     and stamps from there on. At End, armed traces that crossed the SLO
//     or ended in error are flushed to a dedicated tail ring that fast
//     traffic never churns, so every SLO-crossing or failed request is
//     retained even when head sampling drops the rest. (A request that
//     never leaves the nanosecond probe+pin path cannot cross a
//     microsecond SLO, which is what makes lazy arming sufficient.)
//
// Spans buffer in a fixed per-session scratch array and flush to a ring
// only when the keep decision is made, so discarded traces write nothing
// shared. Cross-thread spans (a combiner applying another session's
// batch, the background writer flushing a page) are emitted directly into
// the rings by the thread doing the work, tagged with the owning trace ID.
package reqtrace

import (
	"sync/atomic"
	"time"
)

// Phase identifies what a span measures.
type Phase uint8

// Span phases, in rough hot-path order.
const (
	// PhaseRequest is the root span: one per kept trace, covering the
	// whole pool request (or the armed portion for tail-kept traces).
	PhaseRequest Phase = iota + 1
	// PhaseBucketProbe is the page-table lookup (seqlock probe, including
	// any torn retries and the locked fallback).
	PhaseBucketProbe
	// PhasePin is the frame pin (CAS on the packed state word, or the
	// locked writable pin).
	PhasePin
	// PhaseLockWait is time spent blocked on the policy lock (a forced
	// Lock in the batching commit protocol, or the miss path's lock).
	PhaseLockWait
	// PhaseEnqueue is the flat-combining handoff: published at Start,
	// applied Dur later by combiner run Arg1 owned by session Arg2. It is
	// emitted by the combiner, not the publisher — the cross-thread span.
	PhaseEnqueue
	// PhasePolicyOp is policy work done under the lock on the request's
	// behalf (batch apply, admit/evict).
	PhasePolicyOp
	// PhaseDeviceRead is the miss fill from the storage device.
	PhaseDeviceRead
	// PhaseDeviceWrite is an eviction or flush write-back.
	PhaseDeviceWrite
	// PhaseQuarantine is a dirty page parked in (or drained from) the
	// quarantine on the request's behalf.
	PhaseQuarantine
	// PhaseServer is the network server's handling of one wire request
	// (decode to response), for traces propagated over the protocol.
	PhaseServer

	phaseMax
)

var phaseNames = [...]string{
	PhaseRequest:     "request",
	PhaseBucketProbe: "bucket-probe",
	PhasePin:         "pin",
	PhaseLockWait:    "lock-wait",
	PhaseEnqueue:     "combiner-handoff",
	PhasePolicyOp:    "policy-op",
	PhaseDeviceRead:  "device-read",
	PhaseDeviceWrite: "device-write",
	PhaseQuarantine:  "quarantine",
	PhaseServer:      "server-op",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return "phase(" + itoa(int(p)) + ")"
}

// itoa avoids strconv in the hot package for one cold formatting path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Span flag bits.
const (
	// FlagSampled marks a head-sampled trace.
	FlagSampled uint8 = 1 << iota
	// FlagTail marks a tail-kept trace (crossed the SLO or errored).
	FlagTail
	// FlagError marks a request that returned an error.
	FlagError
	// FlagRemote marks a trace ID adopted from the wire protocol.
	FlagRemote
	// FlagCross marks a span emitted by a thread other than the request's
	// (combiner run, background writer).
	FlagCross
	// FlagPartial marks a root span that covers only the armed portion of
	// a tail-kept request (the untraced prefix was not timed).
	FlagPartial
)

// Span is one phase-stamped interval of a trace. Arg1/Arg2 are
// phase-specific: for PhaseEnqueue they are the combiner run ID and the
// applying session's ID; for device phases the page ID; for PhaseRequest
// the page ID and (on error) a nonzero error mark.
type Span struct {
	Trace uint64 `json:"trace"`
	Phase Phase  `json:"phase"`
	Shard int32  `json:"shard"`
	Flags uint8  `json:"flags"`
	Start int64  `json:"start"`
	Dur   int64  `json:"dur"`
	Arg1  uint64 `json:"arg1,omitempty"`
	Arg2  uint64 `json:"arg2,omitempty"`
}

// PhaseName resolves the span's phase for JSON consumers (bptrace, the
// /debug/traces text view).
func (s Span) PhaseName() string { return s.Phase.String() }

// PackHandoff encodes the two session identities of a cross-thread
// handoff span's Arg2: who published the work and who applied it.
// Session IDs are per-wrapper counters, comfortably inside 32 bits.
func PackHandoff(publisher, applier uint64) uint64 {
	return publisher<<32 | applier&0xffffffff
}

// UnpackHandoff decodes PackHandoff.
func UnpackHandoff(v uint64) (publisher, applier uint64) {
	return v >> 32, v & 0xffffffff
}

// Config tunes a Tracer. The zero value of every optional field picks the
// documented default.
type Config struct {
	// Enable turns tracing on; a disabled config yields a nil Tracer,
	// which every method treats as inert.
	Enable bool
	// SampleEvery head-samples one request in N per session (default
	// 1024; 1 traces everything).
	SampleEvery int
	// SLO is the tail-keep latency threshold: armed traces at least this
	// slow are retained in the tail ring (default 1ms).
	SLO time.Duration
	// RingSize is the slot count of each of the two rings — head samples
	// and tail keeps — rounded up to a power of two (default 4096). One
	// tracer serves the whole pool, whatever its shard count.
	RingSize int
	// Clock returns nanoseconds. Default time.Now().UnixNano(); the
	// deterministic E20 bench and tests install a virtual tick clock.
	Clock func() int64
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1024
	}
	if c.SLO <= 0 {
		c.SLO = time.Millisecond
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// Tracer owns the span rings and the trace-ID allocator. All methods are
// nil-safe: a nil *Tracer is the disabled configuration.
type Tracer struct {
	cfg  Config
	head ring
	tail ring
	ids  atomic.Uint64

	started   atomic.Int64 // requests seen by Begin (folded at sample points; lags ≤ SampleEvery per session)
	sampledN  atomic.Int64 // head-sampled requests
	keptMain  atomic.Int64 // traces flushed to the head-sample ring
	keptTail  atomic.Int64 // traces flushed to the tail ring
	discarded atomic.Int64 // armed traces dropped (under SLO, no error)
	spanDrops atomic.Int64 // spans lost to scratch-buffer overflow
	emitted   atomic.Int64 // cross-thread spans emitted directly
}

// New builds a Tracer, or returns nil when cfg.Enable is false.
func New(cfg Config) *Tracer {
	if !cfg.Enable {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, head: newRing(cfg.RingSize), tail: newRing(cfg.RingSize)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SLO returns the tail-keep threshold in nanoseconds (0 when disabled).
func (t *Tracer) SLO() int64 {
	if t == nil {
		return 0
	}
	return int64(t.cfg.SLO)
}

// Now reads the tracer's clock (0 when disabled).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.cfg.Clock()
}

// NextID allocates a fresh trace ID. IDs are never 0.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Emit writes one span directly into the rings, bypassing any scratch
// buffer — the path for cross-thread attribution, where the emitting
// thread is not the trace's owner. Tail-flagged spans go to the tail
// ring so they survive head-sample churn.
func (t *Tracer) Emit(sp Span) {
	if t == nil || sp.Trace == 0 {
		return
	}
	t.emitted.Add(1)
	if sp.Flags&FlagTail != 0 {
		t.tail.put(sp)
		return
	}
	t.head.put(sp)
}

// flush writes a completed trace's spans to one ring.
func (t *Tracer) flush(spans []Span, tail bool) {
	if len(spans) == 0 {
		return
	}
	r := t.tail
	if !tail {
		r = t.head
		t.keptMain.Add(1)
	} else {
		t.keptTail.Add(1)
	}
	for _, sp := range spans {
		r.put(sp)
	}
}

// Spans snapshots every retained span — the head-sample ring first, then the
// tail ring — skipping torn slots. The result is unordered across rings;
// group by Trace and sort by Start to reconstruct a trace.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.tail.snapshot(t.head.snapshot(nil))
}

// Stats is a counter snapshot for the obs registry.
type Stats struct {
	Started   int64 // requests seen
	Sampled   int64 // head-sampled
	KeptMain  int64 // traces kept in the head-sample ring
	KeptTail  int64 // traces kept in the tail ring (SLO/error)
	Discarded int64 // armed traces under the SLO, discarded
	SpanDrops int64 // spans lost to scratch overflow
	Emitted   int64 // cross-thread spans
	RingDrops int64 // ring slots overwritten or torn
}

// Snapshot returns the tracer's counters (zero when disabled).
func (t *Tracer) Snapshot() Stats {
	if t == nil {
		return Stats{}
	}
	st := Stats{
		Started:   t.started.Load(),
		Sampled:   t.sampledN.Load(),
		KeptMain:  t.keptMain.Load(),
		KeptTail:  t.keptTail.Load(),
		Discarded: t.discarded.Load(),
		SpanDrops: t.spanDrops.Load(),
		Emitted:   t.emitted.Load(),
	}
	st.RingDrops = int64(t.head.Dropped() + t.tail.Dropped())
	return st
}

// ---------------------------------------------------------------------------
// Active — the per-session request context

// maxScratch bounds the spans buffered per request; a miss with eviction,
// quarantine park and a combiner handoff stamps about eight.
const maxScratch = 12

// Active is one session's request-trace state, embedded by value in the
// pool session (and shared by pointer with its per-shard core sessions).
// It is single-goroutine, like the session that owns it: Begin and End
// bracket each request, stamps go to a fixed scratch array, and the keep
// decision at End flushes or discards without touching shared state for
// untraced fast hits.
type Active struct {
	tr    *Tracer
	id    uint64
	flags uint8
	armed bool  // tail-arming happened this request (slow phase seen)
	start int64 // request start (0 for lazily armed traces)
	n     int   // head-sampling countdown, session-local
	seen  int64 // requests since the last started-counter fold
	next  uint64
	buf   [maxScratch]Span
	nbuf  int
	cut   bool // scratch overflowed; root still kept
}

// Init binds the Active to a tracer (nil disables it).
func (a *Active) Init(tr *Tracer) { a.tr = tr }

// Tracer returns the bound tracer (nil when disabled).
func (a *Active) Tracer() *Tracer {
	if a == nil {
		return nil
	}
	return a.tr
}

// SetNext forces the next request to adopt the given trace ID — the wire
// propagation hook: the server calls it with the client's ID before the
// pool call, so one trace spans both processes.
func (a *Active) SetNext(id uint64) {
	if a == nil || a.tr == nil {
		return
	}
	a.next = id
}

// Begin opens a request. Untraced requests cost one increment and one
// branch; sampled (or adopted) requests read the clock once and allocate
// an ID.
func (a *Active) Begin() {
	if a.tr == nil {
		return
	}
	// The started counter is folded at sampling boundaries, not bumped per
	// request: an untraced hit must not touch a shared cacheline (the ≤3%
	// budget), so Started can lag by up to SampleEvery per session.
	a.seen++
	if a.next != 0 {
		a.tr.started.Add(a.seen)
		a.seen = 0
		a.id = a.next
		a.next = 0
		a.flags = FlagSampled | FlagRemote
		a.start = a.tr.cfg.Clock()
		a.tr.sampledN.Add(1)
		return
	}
	a.n++
	if a.n < a.tr.cfg.SampleEvery {
		return
	}
	a.n = 0
	a.tr.started.Add(a.seen)
	a.seen = 0
	a.id = a.tr.NextID()
	a.flags = FlagSampled
	a.start = a.tr.cfg.Clock()
	a.tr.sampledN.Add(1)
}

// Sampled reports whether the current request stamps every phase. It is
// the hot-path guard: false for untraced requests, so probe/pin stamping
// costs one load and branch.
func (a *Active) Sampled() bool { return a != nil && a.flags&FlagSampled != 0 }

// ID returns the current trace ID (0 while untraced and unarmed).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// Now reads the clock for span timestamps. Call only on paths that will
// stamp (Sampled, or a slow phase).
func (a *Active) Now() int64 {
	if a == nil || a.tr == nil {
		return 0
	}
	return a.tr.cfg.Clock()
}

// Span stamps one phase interval into the scratch buffer. Callers guard
// with Sampled() on hot paths; Span itself tolerates untraced calls.
func (a *Active) Span(ph Phase, shard int, start, dur int64, arg1, arg2 uint64) {
	if a == nil || a.id == 0 {
		return
	}
	a.push(ph, shard, start, dur, arg1, arg2)
}

// Slow stamps a slow-phase interval, lazily arming the trace: an untraced
// request gets its ID here, so SLO-crossing and failing requests are
// traceable even when head sampling skipped them. Safe (and free) when
// the tracer is disabled.
func (a *Active) Slow(ph Phase, shard int, start, dur int64, arg1, arg2 uint64) {
	if a == nil || a.tr == nil {
		return
	}
	if a.id == 0 {
		a.id = a.tr.NextID()
		a.start = start // armed portion only; root flagged partial
		a.flags |= FlagPartial
	}
	a.armed = true
	a.push(ph, shard, start, dur, arg1, arg2)
}

func (a *Active) push(ph Phase, shard int, start, dur int64, arg1, arg2 uint64) {
	if a.nbuf >= maxScratch {
		a.cut = true
		a.tr.spanDrops.Add(1)
		return
	}
	a.buf[a.nbuf] = Span{
		Trace: a.id, Phase: ph, Shard: int32(shard),
		Start: start, Dur: dur, Arg1: arg1, Arg2: arg2,
	}
	a.nbuf++
}

// End closes the request and makes the keep decision: sampled traces
// flush to the head-sample ring; armed traces that crossed the SLO or
// errored flush to the tail ring; everything else is discarded without a
// shared write. pageArg tags the root span (the page requested).
func (a *Active) End(pageArg uint64, err error) {
	if a == nil || a.tr == nil || a.id == 0 {
		return
	}
	now := a.tr.cfg.Clock()
	dur := now - a.start
	if err != nil {
		a.flags |= FlagError
	}
	tail := a.armed && (err != nil || dur >= int64(a.tr.cfg.SLO))
	if a.flags&FlagSampled != 0 && (err != nil || dur >= int64(a.tr.cfg.SLO)) {
		tail = true
	}
	if tail {
		a.flags |= FlagTail
	}
	keep := a.flags&FlagSampled != 0 || tail
	if keep {
		var errMark uint64
		if err != nil {
			errMark = 1
		}
		// The root rides the scratch array too (its slot is reserved by
		// dropping a child on overflow), so flushing never allocates.
		if a.nbuf >= maxScratch {
			a.nbuf = maxScratch - 1
			a.cut = true
			a.tr.spanDrops.Add(1)
		}
		a.buf[a.nbuf] = Span{
			Trace: a.id, Phase: PhaseRequest, Shard: -1,
			Start: a.start, Dur: dur, Arg1: pageArg, Arg2: errMark,
		}
		a.nbuf++
		spans := a.buf[:a.nbuf]
		for i := range spans {
			spans[i].Flags |= a.flags
		}
		a.tr.flush(spans, tail)
	} else {
		a.tr.discarded.Add(1)
	}
	a.id, a.flags, a.armed, a.start, a.nbuf, a.cut = 0, 0, false, 0, 0, false
}
