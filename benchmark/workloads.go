package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"bpwrapper"
)

// A workload is one closed-loop traffic mix against the product
// configuration. Names are final: every later PR is judged by them.
type workload struct {
	name string
	why  string
	wire bool // through an in-process CacheServer over loopback TCP

	frames, pages int
	writeShare    float64

	// burst is the page accesses in one request: a transaction of Get /
	// GetWrite calls in process, a Client.Do batch on the wire; 1 on the
	// wire means one synchronous Get per request.
	burst int

	// callers is how many closed-loop callers drive it: goroutines in
	// process, connections on the wire. One wherever a second adds nothing
	// but scheduler noise on two vCPUs (README, "How many callers").
	callers int
}

// memTxnPages is an in-process transaction: two of the wrapper's 32-access
// batches, so every request carries the same number of commits. With 16, every
// second request carried one and the median request sat on the step between
// the two kinds (p40 1.55 us, p55 2.36 us); see README, "Requests".
const memTxnPages = 64

var workloads = []workload{
	{name: "mem_hit", frames: 2048, pages: 2048, burst: memTxnPages, callers: 1,
		why: "in-process, every page resident, Zipf reads: the paper's zero-miss set-up, where the buffer hit path and core batching/prefetch do all the work and storage and server do none"},
	{name: "mem_churn", frames: 512, pages: 4096, writeShare: 0.20, burst: memTxnPages, callers: 1,
		why: "in-process, 512 frames over 4096 pages with 20% writes: misses dominate, so replacer admit/evict, buffer victim reclaim and storage read + dirty write-back carry the cost"},
	{name: "wire_get", wire: true, frames: 2048, pages: 2048, burst: 1, callers: 1,
		why: "loopback server, all pages resident, one connection, one synchronous GET at a time: the server layer (codec, conn loop, client, syscalls, 8 KiB copies) is nearly all the cost; no eviction, no storage"},
	{name: "wire_mixed", wire: true, frames: 512, pages: 4096, writeShare: 0.30, burst: 16, callers: 2,
		why: "loopback server, two connections, 30% PUT in Client.Do bursts of 16 over a missing, writing pool: inbound payloads, batched decode, pipelining, so a GET-side win that costs PUTs or the miss path shows"},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// productPolicy is bpserver's default; the rest of the product configuration
// is in buildRig. None of it is a flag.
const productPolicy = "2q"

// rig is the system under test plus the handles the harness drives it by.
type rig struct {
	base     bpwrapper.Device // the MemDevice; the audit reads it directly
	pool     *bpwrapper.Pool
	bw       *bpwrapper.BackgroundWriter
	srv      *bpwrapper.CacheServer
	clients  []*bpwrapper.CacheClient
	sessions []*bpwrapper.PoolSession
}

type rigOpts struct {
	wl workload
	in *inputs
	tr *tracer // non-nil wraps Device and Policy for the traced pass

	// faulty, when non-nil, is put between the pool and the audited
	// device. Tests use it to show the audit trips.
	faulty func(bpwrapper.Device) bpwrapper.Device
}

// buildRig assembles bpserver's flag defaults: policy 2q, one shard,
// batching and prefetching on, a 4096-event flight recorder, the background
// writer at its defaults, controller and request tracing off, and a
// MemDevice holding every page of the range.
func buildRig(o rigOpts) (*rig, error) {
	r := &rig{base: bpwrapper.NewMemDevice()}
	if err := fillDevice(r.base, o.in.ids); err != nil {
		return nil, err
	}
	dev := r.base
	if o.faulty != nil {
		dev = o.faulty(dev)
	}
	factory := bpwrapper.PolicyFactories()[productPolicy]
	if o.tr != nil {
		dev = &tracedDevice{inner: dev, t: o.tr}
		inner := factory
		factory = func(c int) bpwrapper.Policy { return o.tr.tracePolicy(inner(c)) }
	}
	r.pool = bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        o.wl.frames,
		Shards:        1,
		PolicyFactory: factory,
		Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
		Device:        dev,
		RecorderSize:  4096,
	})
	r.bw = r.pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
	warm := make([]bpwrapper.PageID, len(o.in.hot))
	for i, idx := range o.in.hot {
		warm[i] = o.in.ids[idx]
	}
	callers := len(o.in.streams)
	if err := r.pool.Prewarm(warm); err != nil {
		r.close()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	if !o.wl.wire {
		for i := 0; i < callers; i++ {
			r.sessions = append(r.sessions, r.pool.NewSession())
		}
		return r, nil
	}
	srv, err := bpwrapper.NewCacheServer(bpwrapper.CacheServerConfig{Pool: r.pool, Addr: "127.0.0.1:0"})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	r.srv = srv
	for i := 0; i < callers; i++ {
		cl, err := bpwrapper.DialCache(srv.Addr())
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// close stops everything the rig started and flushes every dirty page; a
// flush that fails is an audit failure.
func (r *rig) close() error {
	for _, cl := range r.clients {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.bw.Stop()
	return r.pool.Close()
}

// recorder keeps one worker's per-slice page counts and request latencies.
// Every request is clocked: two clock reads are under 1% of the cheapest one.
type recorder struct {
	start    int64
	sliceLen int64
	pages    []int64  // per slice
	lat      []uint32 // request latencies, ns, in time order
	cut      []int    // lat[cut[i-1]:cut[i]] belongs to slice i
	slice    int
	maxNS    int64

	clocked int64 // requests that ended inside a slice
	busyNS  int64 // sum of their durations
}

func newRecorder(start int64, sliceLen time.Duration, nslices, latCap int) *recorder {
	return &recorder{
		start:    start,
		sliceLen: int64(sliceLen),
		pages:    make([]int64, nslices),
		lat:      make([]uint32, 0, latCap),
		cut:      make([]int, nslices),
	}
}

// done books one request of the given pages that ended at t1. It reports
// false once the last slice is over.
func (rc *recorder) done(t0, t1 int64, pages int) bool {
	s := int((t1 - rc.start) / rc.sliceLen)
	for rc.slice < s && rc.slice < len(rc.cut) {
		rc.cut[rc.slice] = len(rc.lat)
		rc.slice++
	}
	if s >= len(rc.pages) {
		return false
	}
	rc.pages[s] += int64(pages)
	d := t1 - t0
	rc.clocked++
	rc.busyNS += d
	if d > rc.maxNS {
		rc.maxNS = d
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	rc.lat = append(rc.lat, uint32(d)) // latCap is sized from the warm-up; a faster phase grows it
	return true
}

// finish closes the slices the worker never reached.
func (rc *recorder) finish() {
	for ; rc.slice < len(rc.cut); rc.slice++ {
		rc.cut[rc.slice] = len(rc.lat)
	}
}

// worker is one closed-loop caller: it issues its next request only after
// the previous one has answered.
type worker struct {
	id    int
	st    stream
	pos   int
	ids   []bpwrapper.PageID
	owner []uint8
	ver   *versions // shared; a worker touches only the pages it owns

	attempted, failed, wrong, writes int64
	firstErr                         error

	// wire state: request batch, PUT payloads, and the version each GET of
	// an owned page must return
	ops    []bpwrapper.CacheOp
	bufs   [][]byte
	expect []uint64

	tr       *tracer
	requests []span // sampled request spans (traced pass)
}

func (w *worker) next() (idx uint32, write bool) {
	op := w.st[w.pos]
	w.pos++
	if w.pos == len(w.st) {
		w.pos = 0
	}
	return op &^ writeBit, op&writeBit != 0
}

func (w *worker) owns(idx uint32) bool { return int(w.owner[idx]) == w.id }

// version is the version an access to a page this worker owns must return;
// only the owner may read a page's slot.
func (w *worker) version(idx uint32) (ver uint64, owned bool) {
	if !w.owns(idx) {
		return 0, false
	}
	return w.ver.issued[idx], true
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// check verifies what an access returned: the id word always, the version
// too when this worker is the page's only writer.
func (w *worker) check(b []byte, idx uint32, wantVer uint64, owned bool) {
	id := w.ids[idx]
	if pageIDWord(b) != id {
		w.wrong++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("page %v returned with id word %v", id, pageIDWord(b))
		}
		return
	}
	if owned && pageVersion(b) != wantVer {
		w.wrong++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("page %v returned at version %d, last written %d", id, pageVersion(b), wantVer)
		}
	}
}

// memTxn is one in-process request: burst page accesses through the pool.
func (w *worker) memTxn(pool *bpwrapper.Pool, sess *bpwrapper.PoolSession, burst int) {
	for i := 0; i < burst; i++ {
		idx, write := w.next()
		id := w.ids[idx]
		w.attempted++
		if !write {
			ref, err := pool.Get(sess, id)
			if err != nil {
				w.fail(err)
				continue
			}
			ver, owned := w.version(idx)
			w.check(ref.Data(), idx, ver, owned)
			ref.Release()
			continue
		}
		ref, err := pool.GetWrite(sess, id)
		if err != nil {
			w.fail(err)
			continue
		}
		b := ref.Data()
		w.check(b, idx, w.ver.issued[idx], true)
		w.ver.issued[idx]++
		stampPage(b, id, w.ver.issued[idx])
		ref.MarkDirty()
		ref.Release()
		w.ver.written[idx] = w.ver.issued[idx]
		w.writes++
	}
}

// wireCall is one wire request: a synchronous Get, or a Do batch. A
// transport error ends the worker (the connection is gone).
func (w *worker) wireCall(cl *bpwrapper.CacheClient, burst int) error {
	if burst == 1 { // reads only: no workload sends single PUTs
		idx, _ := w.next()
		w.attempted++
		b, err := cl.Get(w.ids[idx])
		if err != nil {
			w.fail(err)
			return nil
		}
		ver, owned := w.version(idx)
		w.check(b, idx, ver, owned)
		return nil
	}
	for i := 0; i < burst; i++ {
		idx, write := w.next()
		id := w.ids[idx]
		if write {
			w.ver.issued[idx]++
			stampPage(w.bufs[i], id, w.ver.issued[idx])
			w.ops[i] = bpwrapper.CacheOp{Code: bpwrapper.CacheOpPut, Page: id, Data: w.bufs[i]}
		} else {
			w.ops[i] = bpwrapper.CacheOp{Code: bpwrapper.CacheOpGet, Page: id}
		}
		w.expect[i], _ = w.version(idx)
	}
	w.attempted += int64(burst)
	// A transport error leaves the burst's PUTs unknown: issued stays ahead
	// of written for their pages and the audit accepts either.
	res, err := cl.Do(w.ops[:burst])
	if err != nil {
		w.failed += int64(burst) - 1
		w.fail(err)
		return err
	}
	w.settle(res)
	return nil
}

// settle checks a burst's answers against what it was built to expect. A PUT
// counts as written once acknowledged. A refused one never reached its page:
// the versions later ops of the burst were built on no longer hold, so only
// their id words are checked, and the version is free again afterwards.
func (w *worker) settle(res []bpwrapper.CacheOpResult) {
	refused := false
	for _, r := range res {
		refused = refused || r.Err != nil
	}
	for i, r := range res {
		idx := uint32(w.ops[i].Page.Block())
		switch {
		case r.Err != nil:
			w.fail(r.Err)
		case w.ops[i].Code == bpwrapper.CacheOpPut:
			w.ver.written[idx] = w.expect[i]
			w.writes++
		default:
			w.check(r.Data, idx, w.expect[i], w.owns(idx) && !refused)
		}
	}
	if refused {
		for i := range res {
			if idx := uint32(w.ops[i].Page.Block()); w.owns(idx) {
				w.ver.issued[idx] = w.ver.written[idx]
			}
		}
	}
}

// run drives requests until the recorder's last slice ends.
func (w *worker) run(r *rig, wl workload, rc *recorder) {
	defer rc.finish()
	var sess *bpwrapper.PoolSession
	var cl *bpwrapper.CacheClient
	if wl.wire {
		cl = r.clients[w.id]
	} else {
		sess = r.sessions[w.id]
		defer sess.Flush()
	}
	for {
		sampled := w.tr != nil && rc.clocked%sampleEvery == 0
		if sampled {
			w.tr.open.Add(1)
		}
		t0 := now()
		var err error
		if wl.wire {
			err = w.wireCall(cl, wl.burst)
		} else {
			w.memTxn(r.pool, sess, wl.burst)
		}
		t1 := now()
		if sampled {
			w.tr.open.Add(-1)
			if len(w.requests) < maxSpans {
				id := uint64(w.id+1)<<reqIDShift | uint64(rc.clocked)
				w.requests = append(w.requests, span{Name: "request", Start: t0, End: t1, ID: id, Req: id})
			}
		}
		if err != nil || !rc.done(t0, t1, wl.burst) {
			return
		}
	}
}

// gcCPU reads the runtime's GC and total CPU-seconds estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// snapshot is everything read at a quiescent point before and after a
// measured phase.
type snapshot struct {
	pool    bpwrapper.PoolStats
	srv     bpwrapper.CacheServerStats
	bw      bpwrapper.BackgroundWriterStats
	mem     runtime.MemStats
	gc, cpu float64
}

func (r *rig) snapshot() snapshot {
	var s snapshot
	s.pool = r.pool.Stats()
	if r.srv != nil {
		s.srv = r.srv.Stats()
	}
	s.bw = r.bw.Stats()
	runtime.ReadMemStats(&s.mem)
	s.gc, s.cpu = gcCPU()
	return s
}

// passResult is one measured phase: per-slice samples plus the counter
// snapshots around it.
type passResult struct {
	wl      workload
	secs    float64
	workers int

	rates []float64 // pages/s per slice
	p50   []float64 // median request per slice, µs

	// tail over all the phase's requests, µs
	p95, p99, p999, maxUS float64
	liveHeapBytes         uint64

	attempted, failed, wrong, writes int64
	clocked, busyNS                  int64
	firstErr                         error
	before, after                    snapshot
	requestSpans                     []span

	// traced pass only: the decorators' meters and spans over the phase
	replacer, storage meter
	innerSpans        []span
	ver               *versions // what the audit expects on the device
}

func (p passResult) pages() int64 { return p.attempted - p.failed }

// versions is what the harness knows of every page's content: the last
// version a writer put into a request, and the last one the system
// acknowledged. They differ only after a failed write.
type versions struct{ issued, written []uint64 }

// sliceLen is the window a phase is cut into: long enough for a thousand
// requests of the slowest workload's kind, short enough that a quiet tenth of
// them exists in a restless minute (see quiet).
const sliceLen = 50 * time.Millisecond

// minSliceRequests is how many requests a slice needs for its median to count.
const minSliceRequests = 20

// runPass warms the rig up, then measures phase in slices of sliceLen.
func runPass(r *rig, wl workload, in *inputs, warm, phase time.Duration, tr *tracer) passResult {
	n := len(in.streams)
	ver := &versions{issued: make([]uint64, len(in.ids)), written: make([]uint64, len(in.ids))}
	ws := make([]*worker, n)
	for i := range ws {
		w := &worker{id: i, st: in.streams[i], ids: in.ids, owner: in.owner, ver: ver, tr: tr}
		if wl.wire {
			w.ops = make([]bpwrapper.CacheOp, wl.burst)
			w.expect = make([]uint64, wl.burst)
			w.bufs = make([][]byte, wl.burst)
			for k := range w.bufs {
				w.bufs[k] = make([]byte, bpwrapper.PageSize)
			}
		}
		ws[i] = w
	}
	drive := func(d time.Duration, nslices, latCap int) []*recorder {
		recs := make([]*recorder, n)
		start := now()
		for i := range recs {
			recs[i] = newRecorder(start, d/time.Duration(nslices), nslices, latCap)
		}
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(w *worker, rc *recorder) {
				defer wg.Done()
				w.run(r, wl, rc)
			}(w, recs[i])
		}
		wg.Wait()
		return recs
	}

	// The warm-up also sizes the latency buffers: half as much again as its
	// busiest caller's request rate, so the measured phase rarely grows one.
	latCap := 0
	for _, rc := range drive(warm, 1, 1<<16) {
		if c := int(1.5 * float64(rc.clocked) * float64(phase) / float64(warm)); c > latCap {
			latCap = c
		}
	}
	for _, w := range ws {
		w.attempted, w.failed, w.writes = 0, 0, 0
		w.requests = w.requests[:0]
	}
	if tr != nil {
		tr.reset(r.pool)
	}

	nslices := int(math.Round(float64(phase) / float64(sliceLen)))
	if nslices < 1 {
		nslices = 1
	}
	res := passResult{wl: wl, workers: n, secs: phase.Seconds(), ver: ver}
	res.before = r.snapshot()
	recs := drive(phase, nslices, latCap)
	res.after = r.snapshot()
	if tr != nil {
		res.replacer, res.storage, res.innerSpans = tr.collect(r.pool)
	}

	sliceSecs := (phase / time.Duration(nslices)).Seconds()
	total := 0
	for _, rc := range recs {
		total += len(rc.lat)
	}
	var merged []uint32
	all := make([]uint32, 0, total)
	for s := 0; s < nslices; s++ {
		var pages int64
		merged = merged[:0]
		for _, rc := range recs {
			pages += rc.pages[s]
			lo := 0
			if s > 0 {
				lo = rc.cut[s-1]
			}
			merged = append(merged, rc.lat[lo:rc.cut[s]]...)
		}
		res.rates = append(res.rates, float64(pages)/sliceSecs)
		all = append(all, merged...)
		if len(merged) < minSliceRequests {
			continue
		}
		slices.Sort(merged)
		res.p50 = append(res.p50, percentileNS(merged, 0.50)/1e3)
	}
	if len(all) > 0 {
		slices.Sort(all)
		res.p95 = percentileNS(all, 0.95) / 1e3
		res.p99 = percentileNS(all, 0.99) / 1e3
		res.p999 = percentileNS(all, 0.999) / 1e3
	}
	for i, rc := range recs {
		w := ws[i]
		res.attempted += w.attempted
		res.failed += w.failed
		res.wrong += w.wrong
		res.writes += w.writes
		res.clocked += rc.clocked
		res.busyNS += rc.busyNS
		if us := float64(rc.maxNS) / 1e3; us > res.maxUS {
			res.maxUS = us
		}
		if res.firstErr == nil {
			res.firstErr = w.firstErr
		}
		res.requestSpans = append(res.requestSpans, w.requests...)
	}

	// Live heap: what the pool, device, server and clients keep alive after
	// a forced collection, the harness's latency buffers dropped first.
	recs, merged, all = nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeapBytes = ms.HeapAlloc
	return res
}

// finish flushes the rig and audits the device against the versions the
// workers wrote. Any discrepancy makes the run incorrect.
func finish(r *rig, ids []bpwrapper.PageID, ver *versions) error {
	if err := r.close(); err != nil {
		return fmt.Errorf("audit: final flush: %w", err)
	}
	return auditDevice(r.base, ids, ver)
}
