// Command bptrace records page-access traces from the built-in workloads
// and replays them through the replacement algorithms, printing hit-ratio
// tables. Its -compare mode runs the batching-fidelity experiment: the
// same trace replayed with and without BP-Wrapper's deferred batches,
// verifying the hit-ratio overlap the paper reports in Figure 8.
//
// Its -addr fetch mode targets a live observability endpoint instead
// (bpload/bpserver started with -obs) and pulls the request traces the
// reqtrace layer retained: the slowest-N text view by default, or the
// Chrome trace_event JSON (-chrome) for chrome://tracing / Perfetto.
//
// Usage:
//
//	bptrace -workload tpcw -record trace.bin          # capture a trace
//	bptrace -replay trace.bin -policies lru,2q,lirs   # hit-ratio sweep
//	bptrace -workload tpcc -sweep                     # record + sweep in one go
//	bptrace -workload tpcw -compare                   # batched vs plain fidelity
//	bptrace -addr 127.0.0.1:6060 -n 5                 # slowest 5 request traces
//	bptrace -addr 127.0.0.1:6060 -chrome out.json     # Perfetto-loadable spans
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"bpwrapper/internal/replacer"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// fetchTraces pulls /debug/traces from a live obs endpoint: the slowest-n
// text view to stdout, or — when chromeOut is set — the trace_event JSON
// into that file.
func fetchTraces(addr string, n int, chromeOut string) error {
	url := fmt.Sprintf("http://%s/debug/traces?n=%d", addr, n)
	var dst io.Writer = os.Stdout
	if chromeOut != "" {
		url = "http://" + addr + "/debug/traces?format=chrome"
		f, err := os.Create(chromeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if _, err := io.Copy(dst, resp.Body); err != nil {
		return err
	}
	if chromeOut != "" {
		fmt.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", chromeOut)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "", "fetch request traces from this obs endpoint (host:port) instead of recording a workload")
		slowestN = flag.Int("n", 10, "with -addr: how many of the slowest traces to print")
		chrome   = flag.String("chrome", "", "with -addr: write Chrome trace_event JSON to this file")
		wlName   = flag.String("workload", "tpcw", "workload to record: tpcw, tpcc, tablescan, zipf, uniform, hotspot, loop")
		workers  = flag.Int("workers", 16, "streams interleaved into the trace")
		txns     = flag.Int("txns", 500, "transactions per stream")
		seed     = flag.Int64("seed", 1, "workload seed")
		record   = flag.String("record", "", "write the recorded trace to this file")
		replay   = flag.String("replay", "", "read the trace from this file instead of recording")
		policies = flag.String("policies", "lru,clock,2q,lirs,mq,arc", "policies for -sweep/-compare")
		caps     = flag.String("capacities", "", "comma-separated buffer capacities (default: 1/64..1/2 of distinct pages)")
		sweep    = flag.Bool("sweep", false, "replay the trace under each policy and capacity")
		compare  = flag.Bool("compare", false, "compare batched vs unbatched hit ratios (BP-Wrapper fidelity)")
	)
	flag.Parse()

	if *addr != "" {
		check(fetchTraces(*addr, *slowestN, *chrome))
		return
	}

	var tr trace.Trace
	switch {
	case *replay != "":
		var err error
		tr, err = readTrace(*replay)
		check(err)
	default:
		wl, err := workload.ByName(*wlName)
		check(err)
		tr = *trace.Record(wl, *workers, *txns, *seed)
	}
	fmt.Printf("trace: %d accesses over %d distinct pages\n", tr.Len(), tr.DistinctPages())

	if *record != "" {
		f, err := os.Create(*record)
		check(err)
		_, err = tr.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		check(err)
		fmt.Printf("wrote %s\n", *record)
	}

	capacities := parseCaps(*caps, tr.DistinctPages())
	polNames := splitList(*policies)

	if *sweep || (!*compare && *record == "" && *replay != "") {
		_, err := sweepTable(os.Stdout, &tr, polNames, capacities)
		check(err)
	}

	if *compare {
		fmt.Printf("\nBatching fidelity (queue 64, threshold 32):\n")
		fmt.Printf("%-8s %-10s %12s %12s %10s\n", "policy", "capacity", "plain hit%", "batched hit%", "delta")
		for _, p := range polNames {
			for _, c := range capacities {
				plain, ok := replacer.New(p, c)
				if !ok {
					fatal(fmt.Errorf("unknown policy %q", p))
				}
				batched, _ := replacer.New(p, c)
				a := trace.Replay(plain, &tr)
				b := trace.ReplayBatched(batched, &tr, 64, 32)
				fmt.Printf("%-8s %-10d %11.3f%% %11.3f%% %9.4f\n",
					p, c, 100*a.HitRatio(), 100*b.HitRatio(), b.HitRatio()-a.HitRatio())
			}
		}
	}
}

// readTrace loads a trace file written by -record.
func readTrace(path string) (trace.Trace, error) {
	var tr trace.Trace
	f, err := os.Open(path)
	if err != nil {
		return tr, err
	}
	defer f.Close()
	_, err = tr.ReadFrom(f)
	return tr, err
}

// sweepTable replays tr under every policy at every capacity and prints the
// hit-ratio grid, one row a capacity.
func sweepTable(w io.Writer, tr *trace.Trace, polNames []string, capacities []int) ([]trace.SweepRow, error) {
	rows, err := trace.Sweep(tr, polNames, capacities)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n%-10s", "capacity")
	for _, p := range polNames {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for _, c := range capacities {
		fmt.Fprintf(w, "%-10d", c)
		for _, p := range polNames {
			for _, r := range rows {
				if r.Policy == p && r.Capacity == c {
					fmt.Fprintf(w, " %8.2f%%", 100*r.Result.HitRatio())
				}
			}
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}

func parseCaps(s string, distinct int) []int {
	if s == "" {
		var caps []int
		for _, div := range []int{64, 32, 16, 8, 4, 2} {
			c := distinct / div
			if c >= 16 {
				caps = append(caps, c)
			}
		}
		if len(caps) == 0 {
			caps = []int{16}
		}
		return caps
	}
	var caps []int
	for _, part := range splitList(s) {
		c, err := strconv.Atoi(part)
		check(err)
		caps = append(caps, c)
	}
	return caps
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bptrace:", err)
	os.Exit(1)
}
