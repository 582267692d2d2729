// Package control closes the observation→actuation loop over a buffer
// pool: a controller goroutine consumes the pool's own sampled access
// stream and actuates the one pool change experiment E19 measures,
// replacement-policy hot-swap.
//
// Shadow ghost caches (replacer.GhostScorer) replay the pool's
// spatially-sampled access stream through every candidate policy. When a
// challenger beats the incumbent's ghost score by SwapMargin on
// SwapPatience consecutive steps, the pool's policy is swapped in place
// (buffer.Pool.SwapPolicy).
//
// Every decision is made in Step, which is deterministic given the pool's
// state: the goroutine merely calls Step on a ticker. Tests drive Step
// directly.
package control

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// ActionKind classifies one actuation.
type ActionKind string

const ActSwapPolicy ActionKind = "swap-policy"

// actionKinds lists every kind, for zero-filled counter exposition.
var actionKinds = []ActionKind{ActSwapPolicy}

// Action is one actuation taken by a Step, for logs and tests.
type Action struct {
	Kind   ActionKind
	Detail string
}

// Config tunes a Controller. The zero value of every optional field picks
// the documented default.
type Config struct {
	// Pool is the controlled pool. Required.
	Pool *buffer.Pool

	// SampleRate is the spatial access-sampling rate fed to
	// Pool.EnableSampling: 1/SampleRate of the page-id space is shadowed.
	// Default 8. The ghost caches are sized Frames/SampleRate so they
	// emulate the full-size pool over the sampled slice.
	SampleRate int

	// RingSize is the sample ring capacity. Default 8192.
	RingSize int

	// Candidates are the policy names shadow-scored for hot-swap.
	// Default {"2q", "lirs", "clockpro"}. Unknown names are ignored.
	Candidates []string

	// SwapMargin and SwapPatience gate policy hot-swap: a challenger must
	// beat the incumbent's ghost score by SwapMargin on SwapPatience
	// consecutive steps. Defaults 0.05 and 3.
	SwapMargin   float64
	SwapPatience int

	// MinWindow is the minimum number of sampled accesses the ghost
	// scorer must have seen before a swap is considered (tiny windows are
	// noise). Default 2048.
	MinWindow int64
}

// The loop's cadence and the scorer's memory.
const (
	// stepInterval is the time between Steps when running via Start.
	stepInterval = 500 * time.Millisecond
	// ghostWindow is the scorer's decay period in sampled accesses (scores
	// halve every window, tracking the current phase).
	ghostWindow = 4096
)

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = 8
	}
	if c.RingSize <= 0 {
		c.RingSize = 8192
	}
	if len(c.Candidates) == 0 {
		c.Candidates = []string{"2q", "lirs", "clockpro"}
	}
	if c.SwapMargin <= 0 {
		c.SwapMargin = 0.05
	}
	if c.SwapPatience <= 0 {
		c.SwapPatience = 3
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 2048
	}
	return c
}

// Controller is the control loop. Step is single-threaded: either drive it
// from Start's goroutine or call it directly (tests), never both at once.
type Controller struct {
	cfg       Config
	pool      *buffer.Pool
	scorer    *replacer.GhostScorer
	factories map[string]replacer.Factory

	cursor uint64
	buf    []page.PageID

	// Exposition state (read by the obs collector from any goroutine).
	steps      atomic.Int64
	actions    map[ActionKind]*atomic.Int64
	mu         sync.Mutex
	lastAction Action
	scores     map[string]float64

	started  atomic.Bool
	stopOnce sync.Once
	doneOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// closeDone marks the control goroutine finished; safe to call from both
// the goroutine's exit and Stop-on-a-never-started controller.
func (c *Controller) closeDone() { c.doneOnce.Do(func() { close(c.done) }) }

// New builds a controller over cfg.Pool and enables the pool's access
// sampling at cfg.SampleRate. It does not start the loop; call Start, or
// drive Step directly.
func New(cfg Config) *Controller {
	if cfg.Pool == nil {
		panic("control: Config.Pool is required")
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:       cfg,
		pool:      cfg.Pool,
		buf:       make([]page.PageID, 1024),
		factories: make(map[string]replacer.Factory),
		actions:   make(map[ActionKind]*atomic.Int64, len(actionKinds)),
		scores:    make(map[string]float64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, k := range actionKinds {
		c.actions[k] = new(atomic.Int64)
	}
	all := replacer.Factories()
	ghostCandidates := make(map[string]replacer.Factory)
	for _, name := range cfg.Candidates {
		if f, ok := all[name]; ok {
			c.factories[name] = f
			ghostCandidates[name] = f
		}
	}
	ghostCap := c.pool.Stats().Frames / cfg.SampleRate
	c.scorer = replacer.NewGhostScorer(ghostCap, ghostCandidates, ghostWindow)
	c.pool.EnableSampling(cfg.SampleRate, cfg.RingSize)
	return c
}

// Start launches the control goroutine, one Step every stepInterval. Stop
// terminates it.
func (c *Controller) Start() {
	if c.started.Swap(true) {
		return
	}
	go func() {
		defer c.closeDone()
		t := time.NewTicker(stepInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Step()
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop terminates the control goroutine (idempotent; a controller that was
// never Started just closes its channels).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		if !c.started.Load() {
			// Start was never called: nothing will ever close done.
			c.closeDone()
		}
	})
	<-c.done
}

// Step runs one observe→decide→actuate cycle and reports the actions it
// took. It is deterministic given the pool's state and sample stream.
func (c *Controller) Step() []Action {
	c.steps.Add(1)
	c.drainSamples()
	// The incumbent is whatever shard 0 runs (shards share one policy by
	// construction): one load of the box SwapPolicy swaps, no lock.
	incumbent := c.pool.Wrapper().Policy().Name()
	c.publishScores()
	if c.scorer.Seen() < c.cfg.MinWindow {
		return nil
	}
	// Hot-swap from ghost scores with hysteresis.
	pick := c.scorer.Pick(incumbent, c.cfg.SwapMargin, c.cfg.SwapPatience)
	f, ok := c.factories[pick]
	if pick == incumbent || !ok {
		return nil
	}
	from, to, err := c.pool.SwapPolicy(f)
	if err != nil {
		return nil
	}
	// The old scores graded policies against the OLD incumbent's era; start
	// the new era clean so a follow-up swap needs fresh evidence.
	c.scorer.Reset()
	return c.record(ActSwapPolicy, fmt.Sprintf("%s->%s", from, to))
}

// drainSamples feeds everything the pool sampled since the last step to
// the ghost scorer.
func (c *Controller) drainSamples() {
	for {
		n, next := c.pool.Samples(c.cursor, c.buf)
		c.cursor = next
		for _, id := range c.buf[:n] {
			c.scorer.Observe(id)
		}
		if n < len(c.buf) {
			return
		}
	}
}

// record counts an action and remembers it as the most recent.
func (c *Controller) record(kind ActionKind, detail string) []Action {
	a := Action{Kind: kind, Detail: detail}
	c.actions[kind].Add(1)
	c.mu.Lock()
	c.lastAction = a
	c.mu.Unlock()
	return []Action{a}
}

// publishScores snapshots the ghost scores for the obs collector.
func (c *Controller) publishScores() {
	s := c.scorer.Scores()
	c.mu.Lock()
	c.scores = s
	c.mu.Unlock()
}

// LastAction returns the most recent actuation (zero Action if none yet).
func (c *Controller) LastAction() Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastAction
}

// Steps reports how many Steps have run.
func (c *Controller) Steps() int64 { return c.steps.Load() }

// Scores returns the latest published ghost scores.
func (c *Controller) Scores() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.scores))
	for k, v := range c.scores {
		out[k] = v
	}
	return out
}

// RegisterObs exposes the controller under bpw_control_*: step and
// per-kind action counters, the live ghost score per candidate policy, and
// the last action as a labeled info gauge (bpstat renders it verbatim).
func (c *Controller) RegisterObs(reg *obs.Registry) {
	reg.Register(func(emit func(obs.Metric)) {
		emit(obs.Metric{
			Name: "bpw_control_steps_total", Type: obs.Counter,
			Help:  "control-loop steps executed",
			Value: float64(c.steps.Load()),
		})
		for _, k := range actionKinds {
			emit(obs.Metric{
				Name: "bpw_control_actions_total", Type: obs.Counter,
				Help:   "control actuations by kind",
				Labels: [][2]string{{"kind", string(k)}},
				Value:  float64(c.actions[k].Load()),
			})
		}
		c.mu.Lock()
		scores := make(map[string]float64, len(c.scores))
		for k, v := range c.scores {
			scores[k] = v
		}
		last := c.lastAction
		c.mu.Unlock()
		for _, name := range c.cfg.Candidates {
			if v, ok := scores[name]; ok {
				emit(obs.Metric{
					Name: "bpw_control_policy_score", Type: obs.Gauge,
					Help:   "shadow ghost-cache hit ratio per candidate policy",
					Labels: [][2]string{{"policy", name}},
					Value:  v,
				})
			}
		}
		if last.Kind != "" {
			emit(obs.Metric{
				Name: "bpw_control_last_action", Type: obs.Gauge,
				Help:   "most recent control actuation (info gauge)",
				Labels: [][2]string{{"kind", string(last.Kind)}, {"detail", last.Detail}},
				Value:  1,
			})
		}
	})
}
