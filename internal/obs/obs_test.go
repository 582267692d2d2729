package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/metrics"
	"bpwrapper/internal/sched"
)

func TestRecorderNilIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvHealthChange, 1, 2)
	if r.Events() != nil || r.Seq() != 0 || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var sb strings.Builder
	r.Dump(&sb, "x", 0)
	if !strings.Contains(sb.String(), "disabled") {
		t.Fatal("nil recorder dump missing disabled note")
	}
	if NewRecorder(0) != nil {
		t.Fatal("size 0 should disable the recorder")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(EvHealthChange, uint64(i), uint64(i*10))
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Kind != EvHealthChange || ev.Arg1 != uint64(i) || ev.Arg2 != uint64(i*10) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d with no wrap", r.Dropped())
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(EvQuarantinePark, uint64(i), 0)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want ring capacity 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (newest 8 kept)", i, ev.Seq, want)
		}
	}
	if r.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12 overwritten", r.Dropped())
	}
}

// TestRecorderStampsEveryEvent: each event carries the clock reading of
// its own Record call, so the stamp falls between clock reads taken just
// before and just after that call.
func TestRecorderStampsEveryEvent(t *testing.T) {
	const n = 64
	r := NewRecorder(n)
	var before, after [n]time.Time
	for i := range before {
		before[i] = time.Now()
		r.Record(EvHealthChange, uint64(i), 0)
		after[i] = time.Now()
	}
	evs := r.Events()
	if len(evs) != n {
		t.Fatalf("got %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Time.Before(before[i]) || ev.Time.After(after[i]) {
			t.Fatalf("event %d stamped %v, outside its Record call [%v, %v]",
				i, ev.Time.UnixNano(), before[i].UnixNano(), after[i].UnixNano())
		}
	}
}

func TestRecorderSizeRounding(t *testing.T) {
	if got := NewRecorder(1).Cap(); got != 8 {
		t.Fatalf("minimum capacity %d, want 8", got)
	}
	if got := NewRecorder(100).Cap(); got != 128 {
		t.Fatalf("capacity %d, want next power of two 128", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	// Writers race each other and a snapshotting reader, for -race through the typed layer. That no
	// snapshot returns an event mixing two writes is
	// metrics.TestRingTornReadRefused's and TestRingConcurrentNeverMixes's
	// to show: these writers store the same kind, so a mix could not show.
	r := NewRecorder(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				r.Record(EvHealthChange, uint64(g), uint64(i))
			}
		}(g)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Events() {
				if ev.Kind != EvHealthChange || ev.Arg1 > 3 {
					t.Errorf("event no writer stored: %+v", ev)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if r.Seq() != 80000 {
		t.Fatalf("recorded %d, want 80000", r.Seq())
	}
}

func TestRecorderTornReadAccounting(t *testing.T) {
	// A slot overwritten while a reader snapshots must be skipped (never
	// returned with a mixed payload) and counted into Dropped — the
	// recorder's honesty contract: data loss is visible, not silent. The
	// protocol's own test is metrics.TestRingTornReadRefused; this one
	// holds the recorder to surfacing the ring's count.
	r := NewRecorder(8)
	for i := 0; i < 8; i++ {
		r.Record(EvQuarantinePark, uint64(i), 0)
	}
	// Inside the snapshot's read of the first slot, lap it.
	lapped := false
	restore := sched.SetHook(func(pt sched.Point) {
		if pt == sched.RingSnapshot && !lapped {
			lapped = true
			r.Record(EvQuarantineFlush, 8, 0)
		}
	})
	evs := r.Events()
	restore()
	if len(evs) != 7 {
		t.Fatalf("snapshot returned %d events, want 7 (torn slot skipped)", len(evs))
	}
	for _, ev := range evs {
		if ev.Seq == 0 || ev.Seq == 8 {
			t.Fatalf("torn slot leaked into the snapshot: %+v", ev)
		}
	}
	// One event overwritten, one snapshot read refused.
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// The writer long gone, the slot reads clean and nothing more is lost.
	if evs := r.Events(); len(evs) != 8 || evs[7].Kind != EvQuarantineFlush {
		t.Fatalf("clean snapshot returned %d events, newest %+v", len(evs), evs[len(evs)-1])
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped after a clean snapshot = %d, want 2", got)
	}
}

func TestRecorderDumpTail(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(EvQuarantinePark, uint64(i), 0)
	}
	var sb strings.Builder
	r.Dump(&sb, "pool", 2)
	out := sb.String()
	if !strings.Contains(out, "newest 2 of 5") {
		t.Fatalf("tail header wrong:\n%s", out)
	}
	i4, i3 := strings.Index(out, "[4]"), strings.Index(out, "[3]")
	if i4 < 0 || i3 < 0 || i4 > i3 {
		t.Fatalf("tail not newest-first:\n%s", out)
	}
	if strings.Contains(out, "[2]") {
		t.Fatalf("tail leaked events beyond the limit:\n%s", out)
	}
	sb.Reset()
	(*Recorder)(nil).Dump(&sb, "off", 3)
	if !strings.Contains(sb.String(), "disabled") {
		t.Fatal("nil recorder Dump missing disabled note")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvQuarantinePark, EvQuarantineFlush, EvHealthChange, EvPanic}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(EventKind(200).String(), "kind(") {
		t.Fatal("unknown kind not formatted numerically")
	}
}

func testRegistry() *Registry {
	reg := NewRegistry()
	hist := metrics.NewHistogram(time.Microsecond, time.Second, 12)
	hist.Record(5 * time.Microsecond)
	hist.Record(30 * time.Millisecond)
	dist := metrics.NewCountDist(4)
	dist.Observe(2)
	dist.Observe(7)
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "bpw_lock_acquisitions_total", Help: "lock acquisitions", Type: Counter,
			Labels: [][2]string{{"shard", "0"}}, Value: 42})
		emit(Metric{Name: "bpw_lock_acquisitions_total", Type: Counter,
			Labels: [][2]string{{"shard", "1"}}, Value: 58})
		hs := hist.Snapshot()
		emit(Metric{Name: "bpw_lock_wait_seconds", Help: "contended wait time", Type: Histogram,
			Labels: [][2]string{{"shard", "0"}}, Hist: &hs})
		ds := dist.Snapshot()
		emit(Metric{Name: "bpw_batch_size", Help: "committed batch sizes", Type: Histogram, Dist: &ds})
	})
	return reg
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := testRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP bpw_lock_acquisitions_total lock acquisitions",
		"# TYPE bpw_lock_acquisitions_total counter",
		`bpw_lock_acquisitions_total{shard="0"} 42`,
		`bpw_lock_acquisitions_total{shard="1"} 58`,
		"# TYPE bpw_lock_wait_seconds histogram",
		`bpw_lock_wait_seconds_count{shard="0"} 2`,
		`bpw_batch_size_bucket{le="+Inf"} 2`,
		"bpw_batch_size_sum 9",
		"bpw_batch_size_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE bpw_lock_acquisitions_total") != 1 {
		t.Fatal("TYPE header repeated per series")
	}
	// Histogram buckets must be cumulative and end at the total count.
	if !strings.Contains(out, `bpw_lock_wait_seconds_bucket{shard="0",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
}

func TestJSONTree(t *testing.T) {
	tree := testRegistry().JSONTree()
	acq, ok := tree["bpw_lock_acquisitions_total"].([]any)
	if !ok || len(acq) != 2 {
		t.Fatalf("acquisitions series: %#v", tree["bpw_lock_acquisitions_total"])
	}
	first := acq[0].(map[string]any)
	if first["value"].(float64) != 42 {
		t.Fatalf("first series = %#v", first)
	}
	if first["labels"].(map[string]string)["shard"] != "0" {
		t.Fatalf("labels = %#v", first["labels"])
	}
	batch := tree["bpw_batch_size"].([]any)[0].(map[string]any)
	if batch["count"].(int64) != 2 || batch["max"].(int64) != 7 {
		t.Fatalf("batch dist = %#v", batch)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := testRegistry()
	rec := NewRecorder(8)
	rec.Record(EvHealthChange, 9, 0)
	reg.RegisterRecorder("pool", rec)
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "bpw_lock_acquisitions_total") {
		t.Fatalf("/metrics missing counters:\n%s", out)
	}
	vars := get("/debug/vars")
	for _, want := range []string{`"memstats"`, `"bpwrapper"`, "bpw_lock_wait_seconds"} {
		if !strings.Contains(vars, want) {
			t.Fatalf("/debug/vars missing %q", want)
		}
	}
	if out := get("/debug/events"); !strings.Contains(out, "health-change") {
		t.Fatalf("/debug/events missing recorded event:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestTwoServersCoexist(t *testing.T) {
	// Regression against global expvar/pprof registration: a second
	// server in the same process must not panic or cross-serve.
	a, err := NewServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Addr() == b.Addr() {
		t.Fatal("servers share an address")
	}
	for _, s := range []*Server{a, b} {
		resp, err := http.Get("http://" + s.Addr() + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}
