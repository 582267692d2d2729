package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bpwrapper"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	const pages, frames = 4096, 512
	a := genInputs(7, 2, pages, frames, 0.2)
	if b := genInputs(7, 2, pages, frames, 0.2); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	if c := genInputs(8, 2, pages, frames, 0.2); reflect.DeepEqual(a.streams, c.streams) || reflect.DeepEqual(a.hot, c.hot) {
		t.Fatal("different seeds produced the same inputs")
	}
	if reflect.DeepEqual(a.streams[0], a.streams[1]) {
		t.Fatal("two callers share one stream")
	}
	writes := 0
	count := make([]int, pages)
	for w, st := range a.streams {
		if len(st) != streamOps {
			t.Fatalf("caller %d stream has %d ops", w, len(st))
		}
		for _, op := range st {
			idx := op &^ writeBit
			if idx >= pages {
				t.Fatalf("page index %d out of range", idx)
			}
			count[idx]++
			if op&writeBit != 0 {
				writes++
				if int(a.owner[idx]) != w {
					t.Fatalf("caller %d writes page %d, which caller %d owns", w, idx, a.owner[idx])
				}
			}
		}
	}
	if share := float64(writes) / float64(2*streamOps); math.Abs(share-0.2) > 0.01 {
		t.Fatalf("write share %.3f, want 0.20", share)
	}
	// The prewarm set is the popular end of the distribution: under Zipf 1.1
	// the 512 hottest of 4096 pages draw about four accesses in five.
	hot := 0
	for _, idx := range a.hot {
		hot += count[idx]
	}
	if share := float64(hot) / float64(2*streamOps); share < 0.75 || share > 0.9 {
		t.Fatalf("hottest %d pages draw %.2f of the accesses", frames, share)
	}
}

func TestSliceAndPercentileArithmetic(t *testing.T) {
	m := summarize([]float64{5, 1, 3, 2, 4}, "x")
	if m.Value != 3 || m.Q1 != 2 || m.Q3 != 4 || m.N != 5 {
		t.Fatalf("summarize: %+v", m)
	}
	if got := m.iqrShare(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("iqrShare %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Fatalf("median of even count: %v", got)
	}
	// The quiet-host quantile: what the best tenth of the samples reached,
	// low or high as the metric's direction says, with the quartiles of the
	// same quantile over six consecutive blocks.
	ramp := make([]float64, 60)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if hi, lo := quiet(ramp, "x", higher), quiet(ramp, "x", lower); math.Abs(hi.Value-53.1) > 1e-9 || math.Abs(lo.Value-5.9) > 1e-9 || hi.N != 60 {
		t.Fatalf("quiet: %+v %+v", hi, lo)
	}
	// blocks 0-9, 10-19, ...: their 90th percentiles are 8.1, 18.1, ..., 58.1
	if hi := quiet(ramp, "x", higher); math.Abs(hi.Q1-20.6) > 1e-9 || math.Abs(hi.Q3-45.6) > 1e-9 {
		t.Fatalf("quiet quartiles: %+v", hi)
	}
	if one := quiet([]float64{4, 2}, "x", lower); math.Abs(one.Value-2.2) > 1e-9 || one.Q1 != one.Value || one.Q3 != one.Value {
		t.Fatalf("quiet of too few samples for blocks: %+v", one)
	}

	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentileNS(sorted, q); got != want {
			t.Fatalf("p%v = %v, want %v", q, got, want)
		}
	}

	// Three slices of 100ns; requests end at 50, 150, 160 and 310 (past the
	// end). The latency buffer starts too small and grows.
	rc := newRecorder(1000, 100, 3, 1)
	for _, end := range []int64{1050, 1150, 1160} {
		if !rc.done(end-10, end, 16) {
			t.Fatalf("request ending at %d refused", end)
		}
	}
	if rc.done(1300, 1310, 16) {
		t.Fatal("request past the last slice accepted")
	}
	rc.finish()
	if !reflect.DeepEqual(rc.pages, []int64{16, 32, 0}) || !reflect.DeepEqual(rc.cut, []int{1, 3, 3}) {
		t.Fatalf("pages %v cut %v", rc.pages, rc.cut)
	}
	if rc.clocked != 3 || rc.busyNS != 30 {
		t.Fatalf("clocked %d busy %d", rc.clocked, rc.busyNS)
	}
}

func TestTracedPolicyKeepsOptionalInterfaces(t *testing.T) {
	for _, name := range bpwrapper.PolicyNames() {
		inner, _ := bpwrapper.NewPolicy(name, 8)
		tr := &tracer{}
		wrapped := tr.tracePolicy(inner)
		_, innerPre := inner.(bpwrapper.Prefetcher)
		_, wrappedPre := wrapped.(bpwrapper.Prefetcher)
		if innerPre != wrappedPre {
			t.Errorf("%s: Prefetcher %v became %v", name, innerPre, wrappedPre)
		}
		innerLF, _ := inner.(lockFreeHit)
		wrappedLF, ok := wrapped.(lockFreeHit)
		if !ok || wrappedLF.HitIsLockFree() != (innerLF != nil && innerLF.HitIsLockFree()) {
			t.Errorf("%s: LockFreeHit not forwarded", name)
		}
		for i := uint64(0); i < 40; i++ {
			id := bpwrapper.NewPageID(1, i)
			if !wrapped.Contains(id) {
				wrapped.Admit(id)
			}
			wrapped.Hit(id)
		}
		if wrapped.Len() != inner.Len() || wrapped.Name() != name {
			t.Errorf("%s: decorator changed Len or Name", name)
		}
		tp := tr.policies[0]
		if calls := tp.locked.calls + tp.unlocked.calls.Load(); calls != 80 {
			t.Errorf("%s: %d calls counted, want 80", name, calls)
		}
		want := tp.locked.calls/clockEvery + tp.unlocked.calls.Load()/clockEvery
		if clocked := tp.locked.clocked + tp.unlocked.clocked.Load(); clocked != want {
			t.Errorf("%s: %d calls clocked, want %d", name, clocked, want)
		}
	}
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{settings: settings{Seed: 5, Seconds: 0.5, Trace: true}, setups: 3, outDir: t.TempDir()}
}

// Every workload and leg runs, every named metric comes out, and each
// workload stresses the layer it says it does.
func TestSmokeEveryWorkloadAndLeg(t *testing.T) {
	cfg := smokeConfig(t)
	rep, err := runAll(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		wr := rep.Workloads[wl.name]
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", wl.name, wr.Correct, wr.Failed, wr.Attempted, wr.Error)
		}
		for _, d := range endToEnd {
			m, ok := wr.EndToEnd[d.Name]
			if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v", wl.name, d.Name, m)
			}
		}
		for _, d := range perLayer() {
			m, ok := wr.PerLayer[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v", wl.name, d.Name, m)
			}
		}
		reads := wr.PerLayer["storage.reads_per_kpage"].Value
		call := wr.PerLayer["trace.client_call_ns_per_page"].Value
		server := wr.PerLayer["trace.server_self_ns_per_page"].Value
		if resident := wl.frames == wl.pages; resident && reads != 0 || !resident && reads < 100 {
			t.Errorf("%s: %.1f device reads per 1000 pages", wl.name, reads)
		}
		if !wl.wire && server != 0 {
			t.Errorf("%s: server self time %v in process", wl.name, server)
		}
		// 0.98 in a full run; the margin is for the race detector, which
		// slows the pool far more than it slows the syscalls
		if wl.name == "wire_get" && server < 0.8*call {
			t.Errorf("wire_get: server self %.0f ns of a %.0f ns call", server, call)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: no trace sample: %v", wl.name, err)
		}
	}
	// The result line carries the per-layer metrics of a traced run and the
	// end-to-end ones of an untraced run, and nothing else.
	for _, trace := range []bool{true, false} {
		rep.Settings.Trace = trace
		line, correct := resultLine(rep, workloads[:1])
		var res struct {
			Correct           *bool
			Attempted, Failed *int64
			Metrics           map[string]json.RawMessage
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		want := len(endToEnd)
		if trace {
			want = len(perLayer())
		}
		if err := dec.Decode(&res); err != nil || !correct || res.Correct == nil || res.Attempted == nil || res.Failed == nil || len(res.Metrics) != want {
			t.Fatalf("result line (trace=%v, correct=%v, err=%v, %d metrics): %.200s", trace, correct, err, len(res.Metrics), line)
		}
	}
}

// faultyDevice misbehaves briefly: it drops its dropWrite-th write and, so
// that no later write-back can paper over the loss, every later write of
// that page; or it answers eight reads from its swapRead-th on with the
// neighbouring page's bytes (eight, because a wire PUT overwrites what its
// miss read).
type faultyDevice struct {
	bpwrapper.Device
	dropWrite, swapRead int64
	writes, reads       atomic.Int64
	lost                atomic.Uint64 // the page whose writes are dropped
}

func (d *faultyDevice) WritePage(p *bpwrapper.Page) error {
	if d.writes.Add(1) == d.dropWrite {
		d.lost.Store(uint64(p.ID))
	}
	if uint64(p.ID) == d.lost.Load() {
		return nil
	}
	return d.Device.WritePage(p)
}

func (d *faultyDevice) ReadPage(id bpwrapper.PageID, p *bpwrapper.Page) error {
	if n := d.reads.Add(1); d.swapRead > 0 && n >= d.swapRead && n < d.swapRead+8 {
		err := d.Device.ReadPage(bpwrapper.NewPageID(1, id.Block()^1), p)
		p.ID = id
		return err
	}
	return d.Device.ReadPage(id, p)
}

func TestAuditTrips(t *testing.T) {
	churn, _ := workloadByName("mem_churn")
	mixed, _ := workloadByName("wire_mixed")
	for _, tc := range []struct {
		name                string
		wl                  workload
		dropWrite, swapRead int64
	}{
		{"dropped write in process", churn, 40, 0},
		{"dropped write over the wire", mixed, 40, 0},
		{"another page's bytes in process", churn, 0, 1000},
		{"another page's bytes over the wire", mixed, 0, 1000},
	} {
		cfg := smokeConfig(t)
		cfg.Seconds, cfg.Trace = 0.2, false
		var dev *faultyDevice
		cfg.faulty = func(base bpwrapper.Device) bpwrapper.Device {
			// every set-up gets a fresh fault
			dev = &faultyDevice{Device: base, dropWrite: tc.dropWrite, swapRead: tc.swapRead}
			return dev
		}
		rep := runWorkload(cfg, tc.wl)
		if dev.writes.Load() < 40 || dev.reads.Load() < 1000 {
			t.Fatalf("%s: fault never fired (%d writes, %d reads)", tc.name, dev.writes.Load(), dev.reads.Load())
		}
		if rep.Correct {
			t.Errorf("%s: run passed its audit", tc.name)
		} else {
			t.Logf("%s: %s", tc.name, rep.Error)
		}
	}
}

// A write that failed in flight may or may not have reached the device: the
// audit accepts either version, and nothing older or newer.
func TestAuditVersionRange(t *testing.T) {
	ids := pageIDs(2)
	dev := bpwrapper.NewMemDevice()
	if err := fillDevice(dev, ids); err != nil {
		t.Fatal(err)
	}
	var p bpwrapper.Page
	p.ID = ids[0]
	stampPage(p.Data[:], ids[0], 2)
	if err := dev.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		written, issued uint64
		ok              bool
	}{{2, 2, true}, {1, 2, true}, {2, 3, true}, {3, 3, false}, {1, 1, false}} {
		want := &versions{written: []uint64{tc.written, 0}, issued: []uint64{tc.issued, 0}}
		if err := auditDevice(dev, ids, want); (err == nil) != tc.ok {
			t.Errorf("device at 2, written %d, issued %d: %v", tc.written, tc.issued, err)
		}
	}
}

// A refused PUT is a counted failure, not wrong bytes: the page keeps its
// last acknowledged version and the next PUT reuses the refused one's.
func TestRefusedPutIsAFailureNotALostVersion(t *testing.T) {
	ids := pageIDs(1)
	page := func(ver uint64) []byte {
		b := make([]byte, bpwrapper.PageSize)
		stampPage(b, ids[0], ver)
		return b
	}
	put := bpwrapper.CacheOp{Code: bpwrapper.CacheOpPut, Page: ids[0]}
	get := bpwrapper.CacheOp{Code: bpwrapper.CacheOpGet, Page: ids[0]}
	refusal := bpwrapper.CacheOpResult{Err: bpwrapper.ErrServerDraining}
	for _, tc := range []struct {
		name    string
		res     []bpwrapper.CacheOpResult
		written uint64
	}{
		// the burst is PUT v1, GET, PUT v2
		{"all acknowledged", []bpwrapper.CacheOpResult{{}, {Data: page(1)}, {}}, 2},
		{"first refused", []bpwrapper.CacheOpResult{refusal, {Data: page(0)}, {}}, 2},
		{"last refused", []bpwrapper.CacheOpResult{{}, {Data: page(1)}, refusal}, 1},
		{"both refused", []bpwrapper.CacheOpResult{refusal, {Data: page(0)}, refusal}, 0},
	} {
		w := &worker{ids: ids, owner: []uint8{0}, ver: &versions{issued: []uint64{2}, written: []uint64{0}},
			ops: []bpwrapper.CacheOp{put, get, put}, expect: []uint64{1, 1, 2}}
		w.settle(tc.res)
		refused := int64(0)
		for _, r := range tc.res {
			if r.Err != nil {
				refused++
			}
		}
		if w.wrong != 0 || w.failed != refused || w.ver.written[0] != tc.written || w.ver.issued[0] != tc.written {
			t.Errorf("%s: wrong=%d failed=%d written=%d issued=%d", tc.name, w.wrong, w.failed, w.ver.written[0], w.ver.issued[0])
		}
	}
	// without a refusal the version is checked
	w := &worker{ids: ids, owner: []uint8{0}, ver: &versions{issued: []uint64{1}, written: []uint64{1}},
		ops: []bpwrapper.CacheOp{get}, expect: []uint64{1}}
	if w.settle([]bpwrapper.CacheOpResult{{Data: page(0)}}); w.wrong != 1 {
		t.Errorf("stale read passed: wrong=%d", w.wrong)
	}
}

func TestVerdicts(t *testing.T) {
	// bounds of 10% here, whatever the real metrics carry
	rate := metricDef{Name: "pages_per_s", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "req_p50_us", Better: lower, Bound: 0.10}
	m := func(v, q1, q3 float64) measurement { return measurement{Value: v, Q1: q1, Q3: q3, N: 20} }
	for _, tc := range []struct {
		d    metricDef
		a, b measurement
		want string
	}{
		{rate, m(100, 99, 101), m(97, 96, 98), verdictSame},
		{rate, m(100, 99, 101), m(85, 84, 86), verdictWorse},
		{rate, m(100, 99, 101), m(115, 114, 116), verdictBetter},
		{lat, m(10, 9.9, 10.1), m(11.5, 11.4, 11.6), verdictWorse},
		{lat, m(10, 9.9, 10.1), m(8.5, 8.4, 8.6), verdictBetter},
		{rate, m(100, 95, 104), m(88, 87, 95), verdictWorse},        // overlapping, but both spreads within the bound
		{rate, m(100, 90, 110), m(85, 80, 95), verdictUnresolved},   // a 20% spread cannot resolve 10%
		{rate, m(100, 90, 110), m(100, 90, 110), verdictUnresolved}, // nor call it the same
		{rate, m(100, 80, 120), m(60, 55, 65), verdictWorse},        // unless the ranges are apart
		{rate, m(100, 80, 120), m(150, 140, 165), verdictBetter},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}

	// -compare end to end: a report against itself is all same; against a
	// slower copy it is worse; against other settings it is refused.
	dir := t.TempDir()
	rep := &report{Settings: settings{Seed: 1, Seconds: 20}, Workloads: map[string]*workloadReport{
		"mem_hit": {Correct: true, EndToEnd: map[string]measurement{}},
	}}
	for _, d := range endToEnd {
		rep.Workloads["mem_hit"].EndToEnd[d.Name] = m(100, 99.9, 100.1)
	}
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", rep)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, a); err != nil || worse || strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("self-compare: worse=%v err=%v\n%s", worse, err, out.String())
	}
	rep.Workloads["mem_hit"].EndToEnd["pages_per_s"] = m(50, 49, 51)
	b := write("b.json", rep)
	if worse, err := compareFiles(&out, a, b); err != nil || !worse {
		t.Fatalf("slower copy: worse=%v err=%v", worse, err)
	}
	rep.Settings.Seconds = 5
	c := write("c.json", rep)
	if _, err := compareFiles(&out, a, c); err == nil {
		t.Fatal("mismatched settings were compared")
	}

	// -repeat reports are judged over their runs, not over the first run's
	// slices: here the first runs are equal and the runs are not.
	rep.Settings.Seconds = 20
	repeated := func(name string, rates ...float64) string {
		rep.Repeat = &repeatReport{}
		for _, v := range rates {
			rep.Workloads["mem_hit"].EndToEnd["pages_per_s"] = m(v, v, v)
			rep.Repeat.add(rep)
		}
		rep.Workloads["mem_hit"].EndToEnd["pages_per_s"] = m(100, 100, 100)
		return write(name, rep)
	}
	r1 := repeated("r1.json", 100, 101, 102)
	r2 := repeated("r2.json", 60, 61, 62)
	out.Reset()
	if worse, err := compareFiles(&out, r1, r2); err != nil || !worse {
		t.Fatalf("slower runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := compareFiles(&out, r1, repeated("r3.json", 100, 101)); err == nil {
		t.Fatal("three runs were compared with two")
	}
}

// BENCHMARK.json is the contract other PRs are judged by; it must name
// exactly what the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds != defaultSecs {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: %+v", i, doc.Workloads[i])
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", wl.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the program's list")
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(doc.PerLayer))
	}
}

func TestImportsOnlyThePublicFacade(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "bpwrapper/") {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
		}
	}
}
