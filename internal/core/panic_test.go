package core

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// poisonedLRU is an LRU whose batch hit panics, as a policy does on misuse
// (an Admit of a resident page, a broken invariant).
type poisonedLRU struct{ *replacer.LRU }

func (poisonedLRU) HitSlots([]replacer.Access) { panic("poisoned policy: HitSlots") }

// policyPanicPath names, in a child test binary, the commit path to drive
// into the poisoned policy.
const policyPanicPath = "BPW_POLICY_PANIC_PATH"

// policyPanicPaths are the three commit paths, by their wrapper config.
var policyPanicPaths = map[string]Config{
	"direct":  {},
	"batched": {Batching: true, QueueSize: 8, BatchThreshold: 2},
	"fc":      {Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2},
}

// TestPolicyPanicEndsTheProcess: a policy panic has one outcome on every
// commit path. Nothing recovers it — not the direct or batched round, not a
// combiner's drain — so no caller goes on walking a policy the panic left
// half-mutated, behind a lock the unwinding round never released. Each path
// runs in a child test binary, which must die of the panic.
func TestPolicyPanicEndsTheProcess(t *testing.T) {
	if path := os.Getenv(policyPanicPath); path != "" {
		w := NewSlotted(poisonedLRU{replacer.NewLRU(4)}, policyPanicPaths[path])
		s := w.NewSession()
		s.MissSlot(pid(1), 0, nil)
		for range 2 { // the batch threshold
			s.Hit(pid(1), page.BufferTag{Page: pid(1), Slot: 0})
		}
		s.Flush()
		fmt.Println("survived the poisoned policy")
		return
	}
	for path := range policyPanicPaths {
		t.Run(path, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestPolicyPanicEndsTheProcess$", "-test.count=1")
			cmd.Env = append(os.Environ(), policyPanicPath+"="+path)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("child exited with %v, want a panic's exit status 2:\n%s", err, out)
			}
			if !strings.Contains(string(out), "panic: poisoned policy: HitSlots") {
				t.Fatalf("child died of something else than the policy's panic:\n%s", out)
			}
		})
	}
}
