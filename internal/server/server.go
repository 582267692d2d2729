package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/page"
)

// Config assembles a Server.
type Config struct {
	// Pool is the buffer pool the server fronts. Required. The server
	// does not own the pool's lifecycle except during Drain, which
	// lowers the read-only floor and ends with Pool.CloseWithin.
	Pool *buffer.Pool

	// Addr is the TCP listen address; ":0" picks a free port (tests).
	Addr string

	// MaxConns bounds concurrently served connections; excess accepts
	// are closed immediately and counted. Zero means 1024.
	MaxConns int

	// WriteTimeout bounds how long one response write may block on a
	// slow or vanished reader before the connection is abandoned — the
	// per-connection backpressure valve that keeps one stuck client
	// from parking a handler goroutine forever. Zero means 10s.
	WriteTimeout time.Duration

	// writeBuf is the tests' seam for writeBufSize: a ceiling of a page or
	// two drives the multi-part flush with a handful of GETs. Zero, which
	// is all another package can leave it at, means writeBufSize.
	writeBuf int

	// DrainGrace is how long Drain keeps serving after lowering the
	// pool's read-only floor, so in-flight clients finish their tails
	// against resident pages before connections are retired. Zero
	// means 50ms.
	DrainGrace time.Duration
}

// writeBufSize is the ceiling of the per-connection response buffer. The
// buffer starts empty, grows to fit the burst being served and is never
// shrunk, so a burst's responses go out in one socket write and a
// connection holds the memory of its largest burst; a burst whose
// responses exceed the ceiling is flushed in parts of at most that size.
// Not a knob, like the receive buffer: 31 page responses fit, bpserver
// never had a flag for it, and only tests ever set it (Config.writeBuf).
const writeBufSize = 256 << 10

// Connection/server lifecycle states.
const (
	stateRunning  int32 = iota
	stateDraining       // listener closed, pool read-only, grace running
	stateClosing        // grace over: remaining requests answered DRAINING
	stateClosed
)

// counters is the server's operational counter block, exported through
// RegisterObs. All fields are atomics: handlers update them lock-free —
// reqs, resps and lat once per socket write, from what each connection
// staged since its last one (countingWriter.fold).
type counters struct {
	accepted      atomic.Int64
	active        atomic.Int64 // currently served connections
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
	badFrames     atomic.Int64 // malformed frames / unknown opcodes
	writeTimeouts atomic.Int64 // connections abandoned on write backpressure
	drainedConns  atomic.Int64 // connections retired by a drain poke

	reqs  [opMax]atomic.Int64
	resps [statusMax]atomic.Int64
	lat   [opMax]*metrics.Histogram // per-op latency, frame decode to response buffered
}

func (c *counters) init() {
	for op := byte(1); op < opMax; op++ {
		c.lat[op] = metrics.NewLatencyHistogram()
	}
}

// Server is a TCP page-cache front-end over one buffer.Pool.
type Server struct {
	cfg   Config
	pool  *buffer.Pool
	ln    net.Listener
	state atomic.Int32

	mu    sync.Mutex
	conns map[*conn]struct{}

	wg sync.WaitGroup // connection handlers
	c  counters
}

// New binds cfg.Addr and starts accepting connections in the background.
func New(cfg Config) (*Server, error) {
	if cfg.Pool == nil {
		return nil, errors.New("server: Config.Pool is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.writeBuf <= 0 {
		cfg.writeBuf = writeBufSize
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 50 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:   cfg,
		pool:  cfg.Pool,
		ln:    ln,
		conns: make(map[*conn]struct{}),
	}
	s.c.init()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address, e.g. "127.0.0.1:7071".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Pool returns the fronted pool.
func (s *Server) Pool() *buffer.Pool { return s.pool }

func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Drain or Close
		}
		if s.state.Load() != stateRunning {
			nc.Close()
			continue
		}
		if s.c.active.Load() >= int64(s.cfg.MaxConns) {
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.mu.Lock()
		// Re-check under the registry lock: a drain that snapshotted the
		// connection set must not miss a connection registered after it.
		if s.state.Load() != stateRunning {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.c.accepted.Add(1)
		s.c.active.Add(1)
		s.wg.Add(1)
		go c.serve()
	}
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.c.active.Add(-1)
}

// inflight sums the live connections' requests decoded but not yet
// answered: the gauge is kept where it is written, one word per connection.
func (s *Server) inflight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for c := range s.conns {
		n += c.inflight.Load()
	}
	return n
}

// Drain retires the server gracefully within budget:
//
//  1. stop accepting, lower the pool's read-only floor
//     (Pool.SetReadOnly) — resident pages keep serving over the wire
//     while misses shed as typed OVERLOADED responses;
//  2. after DrainGrace, poke every connection off its blocking read.
//     Requests already buffered are answered with DRAINING, responses
//     already produced are flushed, then connections close — every
//     request is either answered or provably unread, never half-applied;
//  3. flush the pool with Pool.CloseWithin on the remaining budget, so
//     the whole retirement is bounded and no acknowledged write is lost.
//
// A zero budget means 30s. Calling Drain on a draining or closed server
// returns ErrDraining.
func (s *Server) Drain(budget time.Duration) error {
	if budget <= 0 {
		budget = 30 * time.Second
	}
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		return ErrDraining
	}
	deadline := time.Now().Add(budget)
	s.ln.Close()
	s.pool.SetReadOnly(true)

	grace := s.cfg.DrainGrace
	if rem := time.Until(deadline) / 4; grace > rem {
		grace = rem
	}
	if grace > 0 {
		time.Sleep(grace)
	}
	s.state.Store(stateClosing)
	s.pokeConns()

	// Wait for the handlers, reserving part of the budget for the pool
	// flush; stragglers (a handler stuck in a slow write) are cut off by
	// force-closing their sockets, after which exit is prompt.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	waitBudget := time.Until(deadline) / 2
	if waitBudget < 10*time.Millisecond {
		waitBudget = 10 * time.Millisecond
	}
	select {
	case <-done:
	case <-time.After(waitBudget):
		s.closeConns()
		<-done
	}
	s.state.Store(stateClosed)

	rem := time.Until(deadline)
	if rem <= 0 {
		rem = time.Millisecond
	}
	return s.pool.CloseWithin(rem)
}

// pokeConns knocks every registered connection off its blocking read by
// expiring its read deadline. Requests already sitting in a connection's
// receive buffer are still decoded and answered (the frame reader touches
// the socket only when it needs more bytes); only the blocking wait for
// *new* bytes is interrupted.
func (s *Server) pokeConns() {
	past := time.Unix(1, 0)
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(past) //nolint:errcheck // poke is best-effort
	}
	s.mu.Unlock()
}

// closeConns force-closes every registered connection's socket.
func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
}

// Close shuts the server down abruptly: listener and connections are
// closed without grace and the pool is left untouched. Tests and error
// paths use it; production retirement is Drain.
func (s *Server) Close() error {
	s.state.Store(stateClosed)
	err := s.ln.Close()
	s.closeConns()
	s.wg.Wait()
	return err
}

// Stats is a point-in-time snapshot of the server's counter block —
// the same numbers RegisterObs exports, in struct form for harnesses
// that need exact values (the E18 bench ledger) without scraping.
type Stats struct {
	Accepted      int64
	Active        int64
	Inflight      int64
	BytesIn       int64
	BytesOut      int64
	BadFrames     int64
	WriteTimeouts int64
	DrainedConns  int64
	Requests      map[string]int64 // by op name ("get", "put", …)
	Responses     map[string]int64 // by status name ("ok", "draining", …)
}

// Stats snapshots the server counters. Counter reads are individually
// atomic, not mutually consistent — fine for ledgers taken at
// quiescence and progress displays, which are the intended uses.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:      s.c.accepted.Load(),
		Active:        s.c.active.Load(),
		Inflight:      s.inflight(),
		BytesIn:       s.c.bytesIn.Load(),
		BytesOut:      s.c.bytesOut.Load(),
		BadFrames:     s.c.badFrames.Load(),
		WriteTimeouts: s.c.writeTimeouts.Load(),
		DrainedConns:  s.c.drainedConns.Load(),
		Requests:      make(map[string]int64),
		Responses:     make(map[string]int64),
	}
	for op := byte(1); op < opMax; op++ {
		if n := s.c.reqs[op].Load(); n > 0 {
			st.Requests[opName(op)] = n
		}
	}
	for code := byte(0); code < statusMax; code++ {
		if n := s.c.resps[code].Load(); n > 0 {
			st.Responses[statusName(code)] = n
		}
	}
	return st
}

// validPutPayload reports whether a PUT payload carries a PageID plus
// exactly one page.
const putPayloadLen = 8 + page.Size
