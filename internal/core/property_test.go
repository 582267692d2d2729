package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// wrapperScenario is a generated single-session access sequence plus queue
// tuning for property tests.
type wrapperScenario struct {
	QueueSize int
	Threshold int
	Capacity  int
	Trace     []uint16
}

// Generate implements quick.Generator.
func (wrapperScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	qs := 1 + r.Intn(64)
	return reflect.ValueOf(wrapperScenario{
		QueueSize: qs,
		Threshold: 1 + r.Intn(qs),
		Capacity:  1 + r.Intn(48),
		Trace: func() []uint16 {
			tr := make([]uint16, 300+r.Intn(1200))
			span := uint16(1 + r.Intn(96))
			for i := range tr {
				tr[i] = uint16(r.Intn(int(span)))
			}
			return tr
		}(),
	})
}

// runScenario drives one session and returns the op sequence the policy
// observed.
func runScenario(s wrapperScenario, cfg Config) []string {
	rec := newRecording(s.Capacity)
	w := New(rec, cfg)
	sess := w.NewSession()
	for _, v := range s.Trace {
		id := pid(uint64(v))
		if rec.Contains(id) {
			sess.Hit(id, page.BufferTag{Page: id})
		} else {
			sess.Miss(id, page.BufferTag{Page: id})
		}
	}
	sess.Flush()
	return rec.ops
}

// TestQuickBatchingOrderPreservation property-tests the paper's central
// correctness claim over random traces and queue tunings: with a single
// session, the policy observes exactly the same operation sequence with
// batching as without — deferral changes timing, never order or content.
func TestQuickBatchingOrderPreservation(t *testing.T) {
	prop := func(s wrapperScenario) bool {
		plain := runScenario(s, Config{})
		batched := runScenario(s, Config{
			Batching:       true,
			QueueSize:      s.QueueSize,
			BatchThreshold: s.Threshold,
		})
		if len(plain) != len(batched) {
			return false
		}
		for i := range plain {
			if plain[i] != batched[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQueueNeverOverflows property-tests the queue bound: a session's
// pending count never exceeds the configured queue size, whatever the
// trace, even when the lock is persistently busy.
func TestQuickQueueNeverOverflows(t *testing.T) {
	prop := func(s wrapperScenario) bool {
		w := New(replacer.NewLRU(s.Capacity), Config{
			Batching:       true,
			QueueSize:      s.QueueSize,
			BatchThreshold: s.Threshold,
		})
		// Hold the lock the whole time so TryLock always fails: the
		// session must bound its queue via forced blocking commits, which
		// here acquire the lock only when we let go briefly.
		sess := w.NewSession()
		pol := w.Policy()
		for _, v := range s.Trace {
			id := pid(uint64(v))
			if pol.Contains(id) {
				sess.Hit(id, page.BufferTag{Page: id})
			} else {
				sess.Miss(id, page.BufferTag{Page: id})
			}
			if sess.Pending() > s.QueueSize {
				return false
			}
		}
		sess.Flush()
		return sess.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatsConsistent property-tests the accounting identity: every
// hit the session records is eventually committed or dropped.
func TestQuickStatsConsistent(t *testing.T) {
	prop := func(s wrapperScenario) bool {
		w := New(replacer.NewLRU(s.Capacity), Config{
			Batching:       true,
			QueueSize:      s.QueueSize,
			BatchThreshold: s.Threshold,
		})
		sess := w.NewSession()
		pol := w.Policy()
		var hits int64
		for _, v := range s.Trace {
			id := pid(uint64(v))
			if pol.Contains(id) {
				sess.Hit(id, page.BufferTag{Page: id})
				hits++
			} else {
				sess.Miss(id, page.BufferTag{Page: id})
			}
		}
		sess.Flush()
		st := w.Stats()
		return st.Committed+st.Dropped == hits
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
