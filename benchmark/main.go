// Command benchmark is the repository's wall-clock benchmark: four
// closed-loop workloads against the product configuration, end-to-end
// metrics from an untraced pass, and a per-layer ledger measured from
// outside the program. It imports only the public facade, so internal
// refactors never have to edit it. See README.md and ../BENCHMARK.json.
//
//	go run . -seed 1                         # everything, from this directory
//	go run . -workload wire_get -trace 0     # one workload, the untraced pass only
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bpwrapper"
)

const (
	setupReps   = 42 // set-ups timed per run; setup_s is what the best tenth of them took
	maxWarm     = time.Second
	defaultSecs = 30

	// Shares of -seconds a -trace 1 run gives each of its parts.
	untracedShare = 0.30
	tracedShare   = 0.25 // the rest after legs goes to the wire workloads' twin
	legsShare     = 0.25
)

// settings are recorded in every report; -compare refuses reports whose
// settings differ.
type settings struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"` // the per-layer passes ran too, on shares of Seconds
}

type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
}

type workloadReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Error     string                 `json:"error,omitempty"`
	EndToEnd  map[string]measurement `json:"end_to_end,omitempty"`
	PerLayer  map[string]measurement `json:"per_layer,omitempty"`
}

type report struct {
	Settings  settings                   `json:"settings"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Repeat    *repeatReport              `json:"repeat,omitempty"`
}

// runConfig is one run's inputs beyond the workload.
type runConfig struct {
	settings
	setups int                                     // set-ups timed per end-to-end run
	outDir string                                  // trace samples land here
	faulty func(bpwrapper.Device) bpwrapper.Device // tests only
	legs   map[string]float64                      // isolated legs, measured once per process
}

func (r *workloadReport) fail(err error) {
	r.Correct = false
	if r.Error == "" {
		r.Error = err.Error()
	}
}

// absorb folds a pass into the report. Wrong bytes make the run incorrect;
// failed operations are counted, and the first one's error is kept.
func (r *workloadReport) absorb(p passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	switch {
	case p.wrong > 0:
		r.fail(fmt.Errorf("%s: %d accesses returned wrong bytes, first: %w", p.wl.name, p.wrong, p.firstErr))
	case p.firstErr != nil && r.Error == "":
		r.Error = fmt.Sprintf("%s: first failed operation: %v", p.wl.name, p.firstErr)
	}
}

func warmFor(phase time.Duration) time.Duration {
	if w := phase / 4; w < maxWarm {
		return w
	}
	return maxWarm
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func rigFor(cfg runConfig, wl workload) rigOpts {
	return rigOpts{
		wl:     wl,
		in:     genInputs(cfg.Seed, wl.callers, wl.pages, wl.frames, wl.writeShare),
		faulty: cfg.faulty,
	}
}

// runWorkload measures one workload. The untraced pass gives the end-to-end
// metrics and the in-run counters. With cfg.Trace it gets a share of -seconds
// and the traced pass follows (for a wire workload, its twin too), so that a
// run takes about -seconds either way.
func runWorkload(cfg runConfig, wl workload) *workloadReport {
	rep := &workloadReport{Correct: true}
	opts := rigFor(cfg, wl)

	// pass warms a rig up, measures it for a share of -seconds, then flushes
	// and audits it.
	pass := func(r *rig, o rigOpts, share float64) passResult {
		phase := seconds(cfg.Seconds * share)
		p := runPass(r, o.wl, o.in, warmFor(phase), phase, o.tr)
		rep.absorb(p)
		if err := finish(r, o.in.ids, p.ver); err != nil {
			rep.fail(err)
		}
		return p
	}

	// Set up cfg.setups times: setup_s is the quiet tenth of them, the last rig is measured.
	var r *rig
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				rep.fail(err)
				return rep
			}
		}
		// Start every set-up from a collected heap, so it is timed with
		// the same garbage behind it.
		runtime.GC()
		t0 := now()
		var err error
		if r, err = buildRig(opts); err != nil {
			rep.fail(err)
			return rep
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	share := 1.0
	if cfg.Trace {
		share = untracedShare
	}
	untraced := pass(r, opts, share)
	rep.EndToEnd = endToEndMetrics(untraced, setups)
	if !cfg.Trace {
		return rep
	}

	tracedPass := func(o rigOpts, share float64) (passResult, bool) {
		o.tr = &tracer{}
		r, err := buildRig(o)
		if err != nil {
			rep.fail(err)
			return passResult{}, false
		}
		return pass(r, o, share), true
	}
	share = 1 - untracedShare - legsShare
	if wl.wire {
		share = tracedShare
	}
	traced, ok := tracedPass(opts, share)
	if !ok {
		return rep
	}
	var twin *passResult
	if wl.wire {
		twinOpts := opts
		twinOpts.wl.wire = false
		twinOpts.wl.burst = memTxnPages
		t, ok := tracedPass(twinOpts, 1-untracedShare-legsShare-tracedShare)
		if !ok {
			return rep
		}
		twin = &t
	}
	values := inRunCounters(untraced)
	for k, v := range ledger(traced, twin, rep.EndToEnd["pages_per_s"].Value, cfg.legs["host.clock_ns"]) {
		values[k] = v
	}
	for k, v := range cfg.legs {
		values[k] = v
	}
	rep.PerLayer = make(map[string]measurement)
	for _, d := range perLayer() {
		v, ok := values[d.Name]
		if !ok {
			rep.fail(fmt.Errorf("per-layer metric %s was not measured", d.Name))
		}
		rep.PerLayer[d.Name] = single(v, d.Unit)
	}
	path := filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := writeTrace(path, traced.requestSpans, traced.innerSpans); err != nil {
		rep.fail(fmt.Errorf("write trace sample: %w", err))
	}
	return rep
}

// runAll runs the selected workloads; the isolated legs are the same for
// every workload and are measured once.
func runAll(cfg runConfig, wls []workload) (*report, error) {
	rep := &report{Settings: cfg.settings, Host: host(), Workloads: make(map[string]*workloadReport)}
	if cfg.Trace {
		legs, err := runLegs(cfg.Seed, seconds(cfg.Seconds*legsShare))
		if err != nil {
			return nil, err
		}
		cfg.legs = legs
	}
	for _, wl := range wls {
		rep.Workloads[wl.name] = runWorkload(cfg, wl)
	}
	return rep, nil
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printReport prints every metric by name with its unit.
func printReport(rep *report, wls []workload) {
	fmt.Printf("benchmark: seed %d, %gs per workload, trace %v; %s, %d cpus, %s\n",
		rep.Settings.Seed, rep.Settings.Seconds, rep.Settings.Trace,
		rep.Host.CPU, rep.Host.NProc, rep.Host.GoVersion)
	row := func(name string, m measurement) {
		if m.N > 1 {
			fmt.Printf("  %-40s %16.4f %-8s iqr [%.4f, %.4f] n=%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("  %-40s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, wl := range wls {
		wr := rep.Workloads[wl.name]
		fmt.Printf("\n%s (%d closed-loop callers): correct=%v attempted=%d failed=%d %s\n", wl.name, wl.callers, wr.Correct, wr.Attempted, wr.Failed, wr.Error)
		for _, d := range endToEnd {
			if m, ok := wr.EndToEnd[d.Name]; ok {
				row(d.Name, m)
			}
		}
		for _, d := range perLayer() {
			if m, ok := wr.PerLayer[d.Name]; ok {
				row(d.Name, m)
			}
		}
	}
}

// resultLine is the last line of standard output: one JSON object with
// exactly these keys. Its metrics are the end-to-end ones of a -trace 0 run
// and the per-layer ones of a -trace 1 run. With one workload the metric
// names are bare; with several each is prefixed by its workload.
func resultLine(rep *report, wls []workload) (line string, correct bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, wl := range wls {
		wr := rep.Workloads[wl.name]
		prefix := ""
		if len(wls) > 1 {
			prefix = wl.name + "."
		}
		out.Correct = out.Correct && wr.Correct
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		set := wr.EndToEnd
		if rep.Settings.Trace {
			set = wr.PerLayer
		}
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				out.Correct = false
				m.Value = 0
			}
			out.Metrics[prefix+name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, out.Attempted, out.Failed), false
	}
	return string(b), out.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		wl, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, wl)
	}
	return out, nil
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed the op streams are generated from")
		list     = flag.String("workload", "", "comma-separated subset of workloads (default all)")
		secs     = flag.Float64("seconds", defaultSecs, "seconds measured per workload, in slices of 50 ms")
		trace    = flag.Int("trace", 1, "0: the untraced pass alone, for all of -seconds; 1: the per-layer passes too, each on a share of -seconds")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -out reports given as arguments; exit non-zero on any worse")
		repeatN  = flag.Int("repeat", 1, "run the whole benchmark this many times and report max-min over median per metric")
		traceDir = filepath.Join("benchmark", "out")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	wls, err := selectWorkloads(*list)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *secs <= 0 || *repeatN < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be positive"))
	}
	// Run from the repository root the samples go beside the sources; run
	// from this directory they go to ./out.
	if _, err := os.Stat("benchmark"); err != nil {
		traceDir = "out"
	}
	cfg := runConfig{
		settings: settings{Seed: *seed, Seconds: *secs, Trace: *trace == 1},
		setups:   setupReps,
		outDir:   traceDir,
	}
	var rep *report
	for i := 0; i < *repeatN; i++ {
		one, err := runAll(cfg, wls)
		if err != nil {
			fatal(err)
		}
		if rep == nil {
			rep = one
			rep.Repeat = &repeatReport{}
		}
		rep.Repeat.add(one)
	}
	if *repeatN == 1 {
		rep.Repeat = nil
	}
	printReport(rep, wls)
	if rep.Repeat != nil {
		rep.Repeat.finish()
		rep.Repeat.print(os.Stdout)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	line, correct := resultLine(rep, wls)
	fmt.Println(line)
	if !correct || (rep.Repeat != nil && !rep.Repeat.Correct) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
