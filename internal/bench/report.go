package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteJSON writes rep in the shape of the committed results/BENCH_*.json
// ledgers: two-space indent, trailing newline.
func WriteJSON[T any](w io.Writer, rep T) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// PrintFig2 renders the Figure 2 series: average lock acquisition and
// holding time per page access vs batch size.
func PrintFig2(w io.Writer, rows []BatchSizeRow) {
	fmt.Fprintln(w, "Figure 2 — lock acquisition + holding time per access vs batch size")
	fmt.Fprintf(w, "%-12s %-22s %s\n", "batch size", "lock time / access", "contention / M accesses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %-22s %.1f\n", r.BatchSize, fmtDur(r.LockTimePerAccess), r.ContentionPerM)
	}
}

// PrintScalability renders the Figures 6/7 panels: one block per workload,
// one line per (system, procs) point, the paper's three metrics as columns.
func PrintScalability(w io.Writer, title string, rows []ScalabilityRow) {
	fmt.Fprintln(w, title)
	byWorkload := map[string][]ScalabilityRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		fmt.Fprintf(w, "\n[%s]\n", wl)
		fmt.Fprintf(w, "%-10s %6s %14s %14s %14s\n", "system", "procs", "tps", "avg resp", "cont/M")
		for _, r := range byWorkload[wl] {
			fmt.Fprintf(w, "%-10s %6d %14.0f %14s %14.1f\n",
				r.System, r.Procs, r.ThroughputTPS, fmtDur(r.AvgResponse), r.ContentionPerM)
		}
	}
}

// PrintTableII renders Table II (queue-size sensitivity) in the paper's
// two-block shape: throughput and contention per workload and queue size.
func PrintTableII(w io.Writer, rows []QueueSizeRow) {
	fmt.Fprintln(w, "Table II — pgBat vs FIFO queue size (threshold = size/2)")
	printSweep(w, len(rows), func(i int) (string, int, float64, float64) {
		r := rows[i]
		return r.Workload, r.QueueSize, r.ThroughputTPS, r.ContentionPerM
	}, "queue")
}

// PrintTableIII renders Table III (batch-threshold sensitivity).
func PrintTableIII(w io.Writer, rows []ThresholdRow) {
	fmt.Fprintln(w, "Table III — pgBat vs batch threshold (queue size = 64)")
	printSweep(w, len(rows), func(i int) (string, int, float64, float64) {
		r := rows[i]
		return r.Workload, r.Threshold, r.ThroughputTPS, r.ContentionPerM
	}, "thresh")
}

// printSweep renders a (workload, x, throughput, contention) sweep grouped
// by workload.
func printSweep(w io.Writer, n int, get func(int) (string, int, float64, float64), xName string) {
	type row struct {
		x    int
		tps  float64
		cont float64
	}
	groups := map[string][]row{}
	var order []string
	for i := 0; i < n; i++ {
		wl, x, tps, cont := get(i)
		if _, ok := groups[wl]; !ok {
			order = append(order, wl)
		}
		groups[wl] = append(groups[wl], row{x, tps, cont})
	}
	for _, wl := range order {
		fmt.Fprintf(w, "\n[%s]\n", wl)
		fmt.Fprintf(w, "%-8s %14s %14s\n", xName, "tps", "cont/M")
		for _, r := range groups[wl] {
			fmt.Fprintf(w, "%-8d %14.0f %14.1f\n", r.x, r.tps, r.cont)
		}
	}
}

// PrintFig8 renders the Figure 8 panels: hit ratio and throughput
// (normalized to pgClock at the same buffer size) per workload and buffer
// size.
func PrintFig8(w io.Writer, rows []OverallRow) {
	fmt.Fprintln(w, "Figure 8 — hit ratio and normalized throughput vs buffer size")
	// Index pgClock throughput per (workload, frames) for normalization.
	clock := map[string]float64{}
	for _, r := range rows {
		if r.System == "pgClock" {
			clock[r.Workload+"/"+itoa(r.Frames)] = r.ThroughputTPS
		}
	}
	groups := map[string][]OverallRow{}
	var order []string
	for _, r := range rows {
		if _, ok := groups[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		groups[r.Workload] = append(groups[r.Workload], r)
	}
	for _, wl := range order {
		fmt.Fprintf(w, "\n[%s]\n", wl)
		fmt.Fprintf(w, "%-10s %10s %10s %10s %12s\n", "system", "frames", "bufMB", "hit%", "norm tps")
		rs := groups[wl]
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Frames != rs[j].Frames {
				return rs[i].Frames < rs[j].Frames
			}
			return rs[i].System < rs[j].System
		})
		for _, r := range rs {
			norm := 0.0
			if c := clock[r.Workload+"/"+itoa(r.Frames)]; c > 0 {
				norm = r.ThroughputTPS / c
			}
			fmt.Fprintf(w, "%-10s %10d %10.0f %10.2f %12.2f\n",
				r.System, r.Frames, r.BufferMB, 100*r.HitRatio, norm)
		}
	}
}

// PrintSharedQueue renders the E7 ablation.
func PrintSharedQueue(w io.Writer, rows []SharedQueueRow) {
	fmt.Fprintln(w, "Ablation — private vs shared FIFO queue (pgBat)")
	fmt.Fprintf(w, "%-12s %-8s %6s %14s %14s\n", "workload", "design", "procs", "tps", "cont/M")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %6d %14.0f %14.1f\n",
			r.Workload, r.Design, r.Procs, r.ThroughputTPS, r.ContentionPerM)
	}
}

// PrintPolicies renders the E8 ablation.
func PrintPolicies(w io.Writer, rows []PolicyRow) {
	fmt.Fprintln(w, "Ablation — BP-Wrapper across replacement policies")
	fmt.Fprintf(w, "%-12s %-8s %-10s %6s %14s %14s\n", "workload", "policy", "system", "procs", "tps", "cont/M")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %-10s %6d %14.0f %14.1f\n",
			r.Workload, r.Policy, r.System, r.Procs, r.ThroughputTPS, r.ContentionPerM)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
