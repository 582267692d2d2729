package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryTableEntryReachable checks the one experiment table against
// everything derived from it: each name selects exactly its entry, "all"
// selects the whole table in order, the -exp help names each entry, and the
// entries that emit JSON are exactly those with a scripts/bench_<name>.sh
// ledger script (bench_paper.sh is the whole table as text: -exp all into
// results/bpbench.txt).
func TestEveryTableEntryReachable(t *testing.T) {
	table := experiments(&env{})
	var help bytes.Buffer
	if code := run([]string{"-h"}, &help, &help); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	seen := map[string]bool{}
	for _, x := range table {
		if seen[x.name] {
			t.Errorf("experiment %q is in the table twice", x.name)
		}
		seen[x.name] = true
		for _, format := range []string{"table", "json"} {
			got, err := selectExperiments(table, x.name, format)
			if format == "json" && !x.json {
				if err == nil {
					t.Errorf("-exp %s -format json: no error for an experiment without a JSON shape", x.name)
				}
				continue
			}
			if err != nil || len(got) != 1 || got[0].name != x.name {
				t.Errorf("-exp %s -format %s selected %v, err %v", x.name, format, got, err)
			}
		}
		if !strings.Contains(help.String(), x.name+",") {
			t.Errorf("-exp help does not name %q", x.name)
		}
		script, _ := filepath.Glob("../../scripts/bench_" + x.name + ".sh")
		if x.json != (len(script) == 1) {
			t.Errorf("experiment %q: json=%v but %d ledger script(s)", x.name, x.json, len(script))
		}
	}
	all, err := selectExperiments(table, "all", "table")
	if err != nil || len(all) != len(table) {
		t.Fatalf("-exp all selected %d of %d entries, err %v", len(all), len(table), err)
	}
	for i := range all {
		if all[i].name != table[i].name {
			t.Errorf("-exp all runs %q at position %d, table has %q", all[i].name, i, table[i].name)
		}
	}
	scripts, _ := filepath.Glob("../../scripts/bench_*.sh")
	for _, s := range scripts {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(s), "bench_"), ".sh")
		if !seen[name] && name != "paper" {
			t.Errorf("%s regenerates a ledger for %q, which is not in the table", s, name)
		}
	}
}

// TestRunErrors pins the exit status and the one-line diagnosis of every way
// a command line can be wrong; none of them may fall through to a run.
func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-exp", "fig2", "-format", "json"}, 1, "fig2 has no json format"},
		{[]string{"-exp", "all", "-format", "json"}, 1, "has no json format"},
		{[]string{"-exp", "fig2", "-format", "csv"}, 1, `unknown format "csv"`},
		{[]string{"-exp", "nope"}, 1, `unknown experiment "nope"`},
		{[]string{"-exp", "fig2", "-workloads", "nope"}, 1, "nope"},
		{[]string{"-mode", "real"}, 2, "flag provided but not defined: -mode"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v exited %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not contain %q", c.args, stderr.String(), c.want)
		}
		if c.code == 1 && strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: want one line on stderr, got %q", c.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout before failing: %q", c.args, stdout.String())
		}
	}
}

// TestRunFormats drives one cheap deterministic experiment through both
// emitters end to end. How long it took is the host's business and goes to
// stderr: stdout must reproduce byte for byte (scripts/bench_paper.sh).
func TestRunFormats(t *testing.T) {
	for format, want := range map[string]string{
		"table": "hit path",
		"json":  `"experiment": "hitpath"`,
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "hitpath", "-format", format}, &stdout, &stderr); code != 0 {
			t.Fatalf("-format %s exited %d: %s", format, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-format %s output lacks %q:\n%s", format, want, stdout.String())
		}
		if strings.Contains(stdout.String(), "completed in") || !strings.Contains(stderr.String(), "(hitpath completed in") {
			t.Errorf("-format %s: the wall-clock line belongs on stderr only:\nstdout %s\nstderr %s", format, stdout.String(), stderr.String())
		}
	}
}
