package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"bpwrapper/internal/metrics"
)

// MetricType distinguishes how a metric is rendered in Prometheus text.
type MetricType string

const (
	Counter   MetricType = "counter"
	Gauge     MetricType = "gauge"
	Histogram MetricType = "histogram"
)

// Metric is one sample produced at scrape time. Exactly one of Value,
// Hist or Dist is meaningful, selected by Type (Counter/Gauge use Value;
// Histogram uses Hist if non-nil, else Dist).
type Metric struct {
	Name   string
	Help   string
	Type   MetricType
	Labels [][2]string // ordered label pairs, e.g. {{"shard","3"}}
	Value  float64
	Hist   *metrics.HistogramSnapshot
	Dist   *metrics.CountDistSnapshot
}

// Collector produces metrics at scrape time. Collectors must be cheap and
// safe to call concurrently with the workload: everything they read is a
// lock-free snapshot.
type Collector func(emit func(Metric))

// Registry is a set of collectors walked on every scrape. It is the root
// of the exposition tree: the pool registers one collector per layer
// (shards, wrappers, bgwriter, storage) and the server renders whatever
// they emit.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	recorders  []recorderEntry
	tracers    []tracerEntry // request tracers for /debug/traces (traces.go)
}

type recorderEntry struct {
	label string
	rec   *Recorder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector. Safe for concurrent use.
func (g *Registry) Register(c Collector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.collectors = append(g.collectors, c)
}

// RegisterRecorder adds a flight recorder under label for the events
// endpoint and failure dumps. Nil recorders are accepted and reported as
// disabled.
func (g *Registry) RegisterRecorder(label string, r *Recorder) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.recorders = append(g.recorders, recorderEntry{label: label, rec: r})
}

// Gather runs every collector and returns the combined samples.
func (g *Registry) Gather() []Metric {
	g.mu.Lock()
	cs := make([]Collector, len(g.collectors))
	copy(cs, g.collectors)
	g.mu.Unlock()
	var out []Metric
	for _, c := range cs {
		c(func(m Metric) { out = append(out, m) })
	}
	return out
}

// DumpRecordersTail writes every registered flight recorder's newest n
// events, newest first — the /debug/events rendering (n <= 0 means all).
func (g *Registry) DumpRecordersTail(w io.Writer, n int) {
	g.mu.Lock()
	rs := make([]recorderEntry, len(g.recorders))
	copy(rs, g.recorders)
	g.mu.Unlock()
	if len(rs) == 0 {
		fmt.Fprintln(w, "no flight recorders registered")
		return
	}
	for _, e := range rs {
		e.rec.Dump(w, e.label, n)
	}
}

// labelString renders {a="x",b="y"} or "" with no labels.
func labelString(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv[0], kv[1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLabel returns labels plus one extra pair (for histogram le labels).
func withLabel(labels [][2]string, k, v string) [][2]string {
	out := make([][2]string, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, [2]string{k, v})
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers once per metric name, then
// every series; duration histograms are exported in seconds per
// Prometheus convention, count distributions in plain units.
func (g *Registry) WritePrometheus(w io.Writer) error {
	ms := g.Gather()
	// Stable output: group by name in first-seen order, series in emit order.
	order := make([]string, 0, len(ms))
	byName := make(map[string][]Metric)
	for _, m := range ms {
		if _, ok := byName[m.Name]; !ok {
			order = append(order, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range order {
		group := byName[name]
		if h := group[0].Help; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].Type); err != nil {
			return err
		}
		for _, m := range group {
			var err error
			switch {
			case m.Type == Histogram && m.Hist != nil:
				err = writePromDurationHist(w, m)
			case m.Type == Histogram && m.Dist != nil:
				err = writePromCountDist(w, m)
			default:
				_, err = fmt.Fprintf(w, "%s%s %v\n", m.Name, labelString(m.Labels), m.Value)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromDurationHist(w io.Writer, m Metric) error {
	cum := int64(0)
	for i, c := range m.Hist.Counts {
		cum += c
		le := fmt.Sprintf("%g", m.Hist.Bounds[i].Seconds())
		// OpenMetrics exemplars: a traced observation rides its bucket line,
		// so a dashboard can jump from a latency bucket straight to the
		// /debug/traces entry with that trace ID.
		ex := ""
		if e, ok := m.Hist.Exemplars[i]; ok {
			ex = fmt.Sprintf(" # {trace_id=\"%016x\"} %g %.3f",
				e.TraceID, e.Value.Seconds(), float64(e.At.UnixNano())/1e9)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", m.Name, labelString(withLabel(m.Labels, "le", le)), cum, ex); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, labelString(withLabel(m.Labels, "le", "+Inf")), m.Hist.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", m.Name, labelString(m.Labels), m.Hist.Sum.Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelString(m.Labels), m.Hist.Count)
	return err
}

func writePromCountDist(w io.Writer, m Metric) error {
	cum := int64(0)
	for v, c := range m.Dist.Buckets {
		cum += c
		le := fmt.Sprintf("%d", v)
		if v == len(m.Dist.Buckets)-1 {
			le = "+Inf" // the overflow bucket
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, labelString(withLabel(m.Labels, "le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.Name, labelString(m.Labels), m.Dist.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelString(m.Labels), m.Dist.Count)
	return err
}

// JSONTree renders the registry as a nested structure suitable for the
// expvar endpoint and bpstat: metric name → list of series, each with its
// labels and either a scalar value or a distribution summary.
func (g *Registry) JSONTree() map[string]any {
	ms := g.Gather()
	tree := make(map[string]any)
	for _, m := range ms {
		labels := make(map[string]string, len(m.Labels))
		for _, kv := range m.Labels {
			labels[kv[0]] = kv[1]
		}
		entry := map[string]any{"labels": labels}
		switch {
		case m.Type == Histogram && m.Hist != nil:
			entry["count"] = m.Hist.Count
			entry["sum_seconds"] = m.Hist.Sum.Seconds()
			if m.Hist.Count > 0 {
				entry["mean_seconds"] = m.Hist.Sum.Seconds() / float64(m.Hist.Count)
				// Bucket-bound quantiles, so bpstat's latency columns need no
				// histogram math client-side.
				entry["p50_seconds"] = m.Hist.Quantile(0.50).Seconds()
				entry["p99_seconds"] = m.Hist.Quantile(0.99).Seconds()
				entry["p999_seconds"] = m.Hist.Quantile(0.999).Seconds()
			}
		case m.Type == Histogram && m.Dist != nil:
			entry["count"] = m.Dist.Count
			entry["sum"] = m.Dist.Sum
			entry["max"] = m.Dist.Max
			entry["mean"] = m.Dist.Mean()
		default:
			entry["value"] = m.Value
		}
		series, _ := tree[m.Name].([]any)
		tree[m.Name] = append(series, entry)
	}
	return tree
}

// WriteJSON writes JSONTree as indented JSON with sorted keys.
func (g *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.JSONTree())
}
