// Command bpbench regenerates every table and figure of the BP-Wrapper
// paper's evaluation (ICDE 2009) and the deterministic ledgers committed
// under results/. Every experiment is deterministic: the paper's exhibits
// and the lock-protocol ablations run on the discrete-event multiprocessor
// simulator (see DESIGN.md for why), the rest replay a seeded stream
// through the real pool on one goroutine. Nothing on stdout depends on the
// wall clock (how long an experiment took goes to stderr); wall-clock claims
// come from benchmark/ (sh benchmark/run.sh).
//
// Usage:
//
//	bpbench -exp fig6                          # one experiment, paper-shaped table
//	bpbench -exp combine -format json -seed 1  # the shape of results/BENCH_combine.json
//	bpbench -exp all                           # every experiment, in table order
//
// The experiments are declared once, in the table below; bpbench -h lists
// them. -format json works for those with a committed
// results/BENCH_<name>.json (regenerated by scripts/bench_<name>.sh and
// drift-checked by scripts/check_ledgers.sh).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bpwrapper/internal/bench"
	"bpwrapper/internal/workload"
)

// env is what the flags hand every experiment.
type env struct {
	opts  bench.Options
	procs int // processor count of the single-point experiments
}

// experiment is one -exp name.
type experiment struct {
	name string
	json bool // has a -format json shape
	run  func(w io.Writer, format string) error
}

// exp builds a table entry from an experiment function and the emitters of
// its rows; a nil json means the experiment has no JSON shape.
func exp[T any](name string, run func() (T, error), table func(io.Writer, T), json func(io.Writer, T) error) experiment {
	return experiment{name: name, json: json != nil, run: func(w io.Writer, format string) error {
		rows, err := run()
		if err != nil {
			return err
		}
		if format == "json" {
			return json(w, rows)
		}
		table(w, rows)
		return nil
	}}
}

// experiments is the one list of what bpbench can run, in the order -exp all
// runs it. The closures read e when they run, after the flags are parsed.
func experiments(e *env) []experiment {
	return []experiment{
		// The paper's exhibits (simulator).
		exp("fig2", func() ([]bench.BatchSizeRow, error) { return bench.Fig2BatchSize(e.procs, nil, e.opts) },
			bench.PrintFig2, nil), // lock time vs batch size
		exp("fig6", func() ([]bench.ScalabilityRow, error) { return bench.Scalability(nil, []int{1, 2, 4, 8, 16}, e.opts) },
			scalabilityTable("Figure 6 — scalability on a 16-processor machine"), nil),
		exp("fig7", func() ([]bench.ScalabilityRow, error) { return bench.Scalability(nil, []int{1, 2, 4, 6, 8}, e.opts) },
			scalabilityTable("Figure 7 — scalability on an 8-core machine"), nil),
		exp("tab2", func() ([]bench.QueueSizeRow, error) { return bench.TableIIQueueSize(e.procs, nil, e.opts) },
			bench.PrintTableII, nil), // queue-size sensitivity
		exp("tab3", func() ([]bench.ThresholdRow, error) { return bench.TableIIIThreshold(e.procs, nil, e.opts) },
			bench.PrintTableIII, nil), // batch-threshold sensitivity
		exp("fig8", func() ([]bench.OverallRow, error) { return bench.Fig8Overall(8, nil, fig8Options(e.opts)) },
			bench.PrintFig8, nil), // hit ratio & throughput vs buffer size

		// Ablations and extensions on the simulator.
		exp("ablation-queue", func() ([]bench.SharedQueueRow, error) { return bench.AblationSharedQueue(e.procs, e.opts) },
			bench.PrintSharedQueue, nil), // E7: shared vs private FIFO queues
		exp("ablation-policy", func() ([]bench.PolicyRow, error) { return bench.AblationPolicies(e.procs, nil, e.opts) },
			bench.PrintPolicies, nil), // E8: LIRS/MQ under the wrapper
		exp("distributed", func() (distributedRows, error) { return distributed(e) },
			printDistributed, nil), // E10: distributed locks (Section V-A)
		exp("adaptive", func() ([]bench.AdaptiveRow, error) { return bench.AblationAdaptiveThreshold(e.procs, nil, e.opts) },
			bench.PrintAdaptive, nil), // E11: adaptive batch threshold
		exp("combine", func() ([]bench.CombineRow, error) { return bench.CombineExperiment(nil, e.opts) },
			bench.PrintCombine, // E12: baseline vs batched vs flat-combined commits
			func(w io.Writer, rows []bench.CombineRow) error { return bench.JSONCombine(w, e.opts, rows) }),

		// Seeded single-goroutine replays through the real pool.
		exp("chaos", func() (*bench.ChaosReport, error) { return bench.ChaosExperiment(e.opts) },
			bench.PrintChaos, bench.WriteJSON), // E16: device-fault campaigns under the pool
		exp("hitpath", func() (*bench.HitpathReport, error) { return bench.HitpathExperiment(e.opts) },
			bench.PrintHitpath, bench.WriteJSON), // E17: zero locks on a resident read, by counters
		exp("server", func() (*bench.ServerReport, error) { return bench.ServerExperiment(e.opts) },
			bench.PrintServer, bench.WriteJSON), // E18: loopback bpserver byte/op ledger
		exp("tracing", func() (*bench.TracingReport, error) { return bench.TracingExperiment(e.opts) },
			bench.PrintTracing, bench.WriteJSON), // E20: per-phase latency decomposition
	}
}

func scalabilityTable(title string) func(io.Writer, []bench.ScalabilityRow) {
	return func(w io.Writer, rows []bench.ScalabilityRow) { bench.PrintScalability(w, title, rows) }
}

// fig8Options drops tablescan: Figure 8 uses DBT-1 and DBT-2 only.
func fig8Options(o bench.Options) bench.Options {
	var wls []workload.Workload
	for _, wl := range o.Workloads {
		if wl.Name() != "tablescan" {
			wls = append(wls, wl)
		}
	}
	if len(wls) > 0 {
		o.Workloads = wls
	}
	return o
}

// distributedRows is E10's two halves: lock scalability on the simulator,
// and the hit-ratio cost of splitting the history on one trace.
type distributedRows struct {
	locks []bench.DistributedRow
	hits  []bench.PartitionHitRow
}

func distributed(e *env) (distributedRows, error) {
	locks, err := bench.AblationDistributedLocks(e.procs, nil, e.opts)
	if err != nil {
		return distributedRows{}, err
	}
	hits, err := bench.AblationPartitionHitRatio(nil, nil, 0, e.opts.Seed)
	return distributedRows{locks, hits}, err
}

func printDistributed(w io.Writer, r distributedRows) {
	bench.PrintDistributed(w, r.locks)
	fmt.Fprintln(w)
	bench.PrintPartitionHitRatio(w, r.hits)
}

// selectExperiments resolves -exp and -format against the table: the named
// entry, or all of them, provided each can emit the format.
func selectExperiments(table []experiment, name, format string) ([]experiment, error) {
	if format != "table" && format != "json" {
		return nil, fmt.Errorf("unknown format %q (want table or json)", format)
	}
	var selected []experiment
	for _, x := range table {
		if name != "all" && name != x.name {
			continue
		}
		if format == "json" && !x.json {
			return nil, fmt.Errorf("experiment %s has no json format (want table)", x.name)
		}
		selected = append(selected, x)
	}
	if selected == nil {
		return nil, fmt.Errorf("unknown experiment %q (bpbench -h lists them)", name)
	}
	return selected, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the exit
// status (2 for a flag error, 1 for anything else that fails).
func run(args []string, stdout, stderr io.Writer) int {
	var e env
	table := experiments(&e)
	names := make([]string, len(table))
	for i, x := range table {
		names[i] = x.name
	}

	fs := flag.NewFlagSet("bpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expName := fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", or all (each of them, in that order)")
	fs.DurationVar(&e.opts.Duration, "duration", 500*time.Millisecond, "simulated time per point")
	fs.Int64Var(&e.opts.Seed, "seed", 1, "workload seed")
	wlNames := fs.String("workloads", "tpcw,tpcc,tablescan", "comma-separated workloads")
	fs.IntVar(&e.procs, "procs", 16, "processor count for single-point experiments (fig2, tab2, tab3, ablations)")
	format := fs.String("format", "table", "output format: table (paper-shaped) or json (experiments with a results/BENCH_*.json)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bpbench:", err)
		return 1
	}
	for _, name := range strings.Split(*wlNames, ",") {
		wl, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return fail(err)
		}
		e.opts.Workloads = append(e.opts.Workloads, wl)
	}
	selected, err := selectExperiments(table, *expName, *format)
	if err != nil {
		return fail(err)
	}
	for _, x := range selected {
		start := time.Now()
		if err := x.run(stdout, *format); err != nil {
			return fail(fmt.Errorf("%s: %w", x.name, err))
		}
		if *format == "table" {
			fmt.Fprint(stdout, "\n\n")
		}
		// Progress, not output: how long an experiment took is the one thing
		// here the host decides, so it goes to stderr and stdout reproduces
		// byte for byte (scripts/bench_paper.sh).
		fmt.Fprintf(stderr, "(%s completed in %v)\n", x.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
