package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. worsening is B's change in the
// bad direction as a share of A's value. The yardstick is the measured
// spread behind each value (over the runs of a -repeat report, else over six
// consecutive blocks of the one run; see quiet), taken as the inter-quartile
// range over the value: when either side's exceeds the bound and the two
// inter-quartile ranges overlap, the numbers cannot tell the sides apart and
// the cell is unresolved, whatever the values say.
func verdict(d metricDef, a, b measurement) (worsening float64, v string) {
	worsening = ratio(b.Value-a.Value, math.Abs(a.Value))
	if d.Better == higher {
		worsening = -worsening
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case math.Max(a.iqrShare(), b.iqrShare()) > d.Bound && overlap:
		return worsening, verdictUnresolved
	case worsening > d.Bound:
		return worsening, verdictWorse
	case worsening < -d.Bound:
		return worsening, verdictBetter
	}
	return worsening, verdictSame
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// endToEnd is a workload's end-to-end metric as -compare judges it: over the
// runs of a -repeat report, over the blocks of a single run.
func (r *report) endToEnd(wl string, d metricDef) measurement {
	if r.Repeat != nil {
		return summarize(r.Repeat.Values[wl][d.Name], d.Unit)
	}
	return r.Workloads[wl].EndToEnd[d.Name]
}

// compareFiles prints, per workload and end-to-end metric, both values with
// their quartiles, the change, the bound and the verdict. It reports whether
// any cell is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Settings != b.Settings || a.runs() != b.runs() {
		return false, fmt.Errorf("settings differ: %+v x%d vs %+v x%d", a.Settings, a.runs(), b.Settings, b.runs())
	}
	if a.Repeat != nil {
		fmt.Fprintf(w, "medians and quartiles over %d runs a side\n", a.runs())
		if a.Repeat.Correct && !b.Repeat.Correct {
			fmt.Fprintln(w, "a run of B failed its audit")
			anyWorse = true
		}
	} else {
		fmt.Fprintln(w, "values of one run a side, quartiles over its six blocks; -repeat resolves more")
	}
	fmt.Fprintf(w, "%-11s %-13s %34s %34s %8s %6s  %s\n", "workload", "metric", "A [q1, q3]", "B [q1, q3]", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		if ra.Failed != rb.Failed || ra.Correct != rb.Correct {
			fmt.Fprintf(w, "%-11s failed %d -> %d, correct %v -> %v\n", wl.name, ra.Failed, rb.Failed, ra.Correct, rb.Correct)
			anyWorse = anyWorse || rb.Failed > ra.Failed || (ra.Correct && !rb.Correct)
		}
		for _, d := range endToEnd {
			ma, mb := a.endToEnd(wl.name, d), b.endToEnd(wl.name, d)
			by, v := verdict(d, ma, mb)
			cell := func(m measurement) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", m.Value, m.Q1, m.Q3) }
			fmt.Fprintf(w, "%-11s %-13s %34s %34s %+7.1f%% %5.0f%%  %s\n", wl.name, d.Name, cell(ma), cell(mb), by*100, d.Bound*100, v)
			anyWorse = anyWorse || v == verdictWorse
		}
	}
	return anyWorse, nil
}

func (r *report) runs() int {
	if r.Repeat == nil {
		return 1
	}
	return r.Repeat.Runs
}

// repeatReport is what -repeat N adds to a report: per workload and metric,
// the values of the N runs, their median, their spread (inter-quartile range
// over median, what a bound is read against) and their range (max-min over
// median).
type repeatReport struct {
	Runs    int                             `json:"runs"`
	Correct bool                            `json:"correct"`
	Values  map[string]map[string][]float64 `json:"values"`
	Median  map[string]map[string]float64   `json:"median"`
	Spread  map[string]map[string]float64   `json:"spread"`
	Range   map[string]map[string]float64   `json:"range"`
}

func (r *repeatReport) add(run *report) {
	if r.Values == nil {
		r.Values = make(map[string]map[string][]float64)
		r.Correct = true
	}
	r.Runs++
	for name, wr := range run.Workloads {
		r.Correct = r.Correct && wr.Correct
		if r.Values[name] == nil {
			r.Values[name] = make(map[string][]float64)
		}
		for _, set := range []map[string]measurement{wr.EndToEnd, wr.PerLayer} {
			for metric, m := range set {
				r.Values[name][metric] = append(r.Values[name][metric], m.Value)
			}
		}
	}
}

func (r *repeatReport) finish() {
	r.Median = make(map[string]map[string]float64)
	r.Spread = make(map[string]map[string]float64)
	r.Range = make(map[string]map[string]float64)
	for name, metrics := range r.Values {
		r.Median[name] = make(map[string]float64)
		r.Spread[name] = make(map[string]float64)
		r.Range[name] = make(map[string]float64)
		for metric, vals := range metrics {
			m := summarize(vals, "")
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			r.Median[name][metric] = m.Value
			r.Spread[name][metric] = m.iqrShare()
			r.Range[name][metric] = ratio(hi-lo, math.Abs(m.Value))
		}
	}
}

// print lists the end-to-end spreads; the per-layer ones are in the report.
func (r *repeatReport) print(w io.Writer) {
	fmt.Fprintf(w, "\nover %d runs: spread is the inter-quartile range over the median, range is (max-min)/median\n", r.Runs)
	for _, wl := range workloads {
		if r.Spread[wl.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			if sp, ok := r.Spread[wl.name][d.Name]; ok {
				fmt.Fprintf(w, "  %-11s %-13s median %14.4f %-8s spread %5.1f%%  range %5.1f%%  bound %3.0f%%\n",
					wl.name, d.Name, r.Median[wl.name][d.Name], d.Unit, sp*100, r.Range[wl.name][d.Name]*100, d.Bound*100)
			}
		}
	}
}
