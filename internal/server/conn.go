package server

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// conn is one served connection: a socket, its receive buffer and
// response buffer, and the buffer.Session that makes this client a
// first-class BP-Wrapper backend — its accesses batch through the
// session's queue exactly like an in-process worker's.
type conn struct {
	srv    *Server
	nc     net.Conn
	cr     countingReader
	fr     *frameReader
	cw     countingWriter
	sess   *buffer.Session
	tracer *reqtrace.Tracer // the pool's request tracer; nil when disabled

	// out holds the responses not yet handed to the socket. It starts
	// empty, grows by append to fit the burst being served and is never
	// shrunk — the mirror of the client's receive buffer — so a burst
	// leaves in one socket write, and a connection holds the memory of its
	// largest burst (at most writeBufSize, past which a burst is flushed
	// in parts).
	out []byte

	// inflight counts this connection's requests decoded but not yet
	// answered; Stats and RegisterObs sum it over the live connections.
	inflight atomic.Int64
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:    s,
		nc:     nc,
		cr:     countingReader{nc: nc, n: &s.c.bytesIn},
		cw:     countingWriter{nc: nc, srv: &s.c, timeout: s.cfg.WriteTimeout},
		sess:   s.pool.NewSession(),
		tracer: s.pool.Tracer(),
	}
	c.fr = newFrameReader(&c.cr, false)
	return c
}

// countingReader folds socket byte counts into the server counters
// without another wrapper layer in the hot loop. A Read is also the only
// place the handler waits for a peer's bytes, so it leaves a mark (woke)
// for serve, which then knows its last clock reading is stale.
type countingReader struct {
	nc   net.Conn
	n    *atomic.Int64
	woke bool
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	r.woke = true
	r.n.Add(int64(n))
	return n, err
}

// countingWriter is the connection's one way to the socket, and what a
// socket write amortises hangs off it. The write deadline is armed here:
// a socket write is the only thing on the response path that can block,
// so each one gets a fresh timeout and responses that only land in the
// buffer cost no timer. And the connection's request, response and
// latency counts are staged here, in memory no other connection touches,
// and folded into the server's shared counters once per socket write —
// buffer.Session.stageHit/foldHits one layer up: the batch, not the
// operation, is what reaches the shared words.
type countingWriter struct {
	nc      net.Conn
	srv     *counters
	timeout time.Duration
	err     error // the first failed write; sticky, nothing is written after it

	// Staged since the last fold.
	reqs  [opMax]int64
	resps [statusMax]int64
	lat   [opMax][]time.Duration
}

// fold publishes the staged counts. Write calls it before the bytes
// leave, so that a peer that has seen a response never reads a counter
// that lacks it; the exit path calls it for what was served and never
// written.
func (w *countingWriter) fold() {
	for op := range w.reqs {
		if n := w.reqs[op]; n != 0 {
			w.srv.reqs[op].Add(n)
			w.reqs[op] = 0
		}
		if len(w.lat[op]) != 0 {
			w.srv.lat[op].RecordBatch(w.lat[op])
			w.lat[op] = w.lat[op][:0]
		}
	}
	for st := range w.resps {
		if n := w.resps[st]; n != 0 {
			w.srv.resps[st].Add(n)
			w.resps[st] = 0
		}
	}
}

// Write folds the staged counters and hands p to the socket under a fresh
// deadline. After one failure it writes nothing more: the stream has a
// hole in it and the connection is retiring.
func (w *countingWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.fold()
	w.nc.SetWriteDeadline(time.Now().Add(w.timeout)) //nolint:errcheck
	// Counted before the write and corrected after a short one, for the
	// same reason the fold comes first.
	w.srv.bytesOut.Add(int64(len(p)))
	n, err := w.nc.Write(p)
	if n < len(p) {
		w.srv.bytesOut.Add(int64(n - len(p)))
	}
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			w.srv.writeTimeouts.Add(1)
		}
		w.err = err
	}
	return n, err
}

// serve is the connection's request loop. The batching contract: decode
// and answer every request already buffered before flushing responses or
// blocking for more bytes, so a pipelined burst that arrived in one
// kernel read is served as one batch through one session — and produces
// one socket write and one fold of the shared counters.
func (c *conn) serve() {
	s := c.srv
	defer func() {
		// Fold the session's batched accesses into the policy so a
		// vanished client's recorded history still reaches the policy.
		c.sess.Flush()
		c.flushBestEffort()
		c.nc.Close()
		s.unregister(c)
		s.wg.Done()
	}()
	// One clock reading per op boundary: while a batch lasts, an op starts
	// where the one before it ended, so its time includes decoding its own
	// frame. Only a wait for the peer's bytes makes the reading stale.
	epoch := time.Now()
	var at time.Duration
	for {
		code, reqID, payload, err := c.fr.next()
		if err != nil {
			// Clean EOF is a client hanging up between frames; anything
			// else — malformed frame, mid-frame cut, drain poke — retires
			// the connection too. Responses already produced are flushed
			// by the deferred path either way.
			if isFrameError(err) {
				s.c.badFrames.Add(1)
			}
			if s.state.Load() >= stateClosing {
				s.c.drainedConns.Add(1)
			}
			return
		}
		if c.cr.woke {
			c.cr.woke = false
			at = time.Since(epoch)
		}
		// Strip the trace-context extension: the flagged payload starts
		// with the client's 8-byte trace ID, adopted below so the pool's
		// spans for this request carry the client's trace.
		op := code &^ TraceFlag
		var tid uint64
		if code&TraceFlag != 0 {
			if len(payload) < 8 {
				// Either a truncated trace prefix or a legacy client using
				// a high code byte: indistinguishable, so answer and close
				// like any unknown opcode.
				c.respondBad(reqID, "trace context requires an 8-byte prefix")
				c.flush()
				return
			}
			tid = be.Uint64(payload)
			payload = payload[8:]
		}
		c.inflight.Add(1)
		var t0 int64
		if tid != 0 && c.tracer != nil {
			t0 = c.tracer.Now()
		}
		ok := c.handle(op, reqID, payload, tid)
		end := time.Since(epoch)
		if op > 0 && op < opMax {
			if tid != 0 {
				// A traced op is its bucket's exemplar, which a batch
				// record cannot carry.
				s.c.lat[op].RecordTraced(end-at, tid)
			} else {
				c.cw.lat[op] = append(c.cw.lat[op], end-at)
			}
		}
		at = end
		if tid != 0 && c.tracer != nil {
			// The server-op span covers decode-to-response for the whole
			// request, bracketing the pool spans the adopted trace emitted.
			c.tracer.Emit(reqtrace.Span{
				Trace: tid, Phase: reqtrace.PhaseServer,
				Flags: reqtrace.FlagRemote,
				Start: t0, Dur: c.tracer.Now() - t0,
				Arg1: uint64(op), Arg2: reqID,
			})
		}
		c.inflight.Add(-1)
		if !ok || c.cw.err != nil {
			// Unknown opcode after its BadRequest response (resync is
			// impossible), or a socket write failed.
			return
		}
		if c.fr.buffered() == 0 && !c.flush() {
			return
		}
	}
}

// handle dispatches one request and appends its response to the response
// buffer. It returns false when the connection cannot continue (the
// opcode was unknown, so frame alignment is unprovable, or the peer has
// stopped reading). tid, when
// non-zero, is the client's propagated trace ID, adopted for the pool
// access so one trace spans client, server, pool, and device.
func (c *conn) handle(code byte, reqID uint64, payload []byte, tid uint64) bool {
	s := c.srv
	if code > 0 && code < opMax {
		c.cw.reqs[code]++
	}
	// Past the drain grace nothing is applied: buffered requests get a
	// typed DRAINING answer so pipelining clients can tell "refused" from
	// "vanished" — an acknowledged write is durable, a DRAINING one never
	// happened.
	if s.state.Load() >= stateClosing {
		c.respond(StatusDraining, reqID, []byte("server draining"))
		return true
	}
	switch code {
	case OpGet:
		if len(payload) != 8 {
			c.respondBad(reqID, "GET payload must be 8 bytes")
			return true
		}
		id := page.PageID(be.Uint64(payload))
		// Make room for the response before the page is pinned, not while:
		// a reader's pin is what a writer of that page spins on, so it
		// must not be held across a socket write to a possibly slow peer.
		if !c.room(pageRespLen) {
			return false
		}
		if tid != 0 {
			c.sess.SetNextTrace(tid)
		}
		ref, err := s.pool.Get(c.sess, id)
		if err != nil {
			c.respondErr(reqID, err)
			return true
		}
		c.respond(StatusOK, reqID, ref.Data())
		ref.Release()
	case OpPut:
		if len(payload) != putPayloadLen {
			c.respondBad(reqID, "PUT payload must be PageID + one page")
			return true
		}
		id := page.PageID(be.Uint64(payload))
		if tid != 0 {
			c.sess.SetNextTrace(tid)
		}
		ref, err := s.pool.GetWrite(c.sess, id)
		if err != nil {
			c.respondErr(reqID, err)
			return true
		}
		copy(ref.Data(), payload[8:])
		ref.MarkDirty()
		ref.Release()
		c.respond(StatusOK, reqID, nil)
	case OpInvalidate:
		if len(payload) != 8 {
			c.respondBad(reqID, "INVALIDATE payload must be 8 bytes")
			return true
		}
		id := page.PageID(be.Uint64(payload))
		if !id.Valid() {
			c.respondErr(reqID, storage.ErrInvalidPage)
			return true
		}
		if err := s.pool.Invalidate(id); err != nil {
			c.respondErr(reqID, err)
			return true
		}
		c.respond(StatusOK, reqID, nil)
	case OpFlush:
		c.sess.Flush()
		n, err := s.pool.FlushDirty()
		if err != nil {
			c.respondErr(reqID, err)
			return true
		}
		var cnt [8]byte
		be.PutUint64(cnt[:], uint64(n))
		c.respond(StatusOK, reqID, cnt[:])
	default:
		c.respondBad(reqID, "unknown opcode")
		c.flush()
		return false
	}
	return true
}

// pageRespLen is the size of a successful GET's response frame.
const pageRespLen = 4 + frameHeaderLen + page.Size

// room makes the response buffer able to take n more bytes, which means a
// flush first when they would carry it past the writeBufSize ceiling. It
// reports false when that flush failed.
func (c *conn) room(n int) bool {
	if len(c.out)+n > c.srv.cfg.writeBuf && !c.flush() {
		return false
	}
	c.out = slices.Grow(c.out, n)
	return true
}

// respond appends one response frame to the response buffer. A frame the
// peer can no longer be sent is dropped: the write error is sticky and
// serve retires the connection on it.
func (c *conn) respond(status byte, reqID uint64, payload []byte) {
	if status < statusMax {
		c.cw.resps[status]++
	}
	if c.room(4 + frameHeaderLen + len(payload)) {
		c.out = appendFrame(c.out, status, reqID, payload)
	}
}

func (c *conn) respondErr(reqID uint64, err error) {
	c.respond(statusForErr(err), reqID, []byte(err.Error()))
}

func (c *conn) respondBad(reqID uint64, msg string) {
	c.srv.c.badFrames.Add(1)
	c.respond(StatusBadRequest, reqID, []byte(msg))
}

// flush hands the buffered responses to the socket in one write. It
// reports false — and retires the connection — when a write has failed,
// most often because the client is not draining its receive window fast
// enough for one to finish within WriteTimeout.
func (c *conn) flush() bool {
	if len(c.out) > 0 {
		c.cw.Write(c.out) //nolint:errcheck // sticky: read back below
		c.out = c.out[:0]
	}
	return c.cw.err == nil
}

// flushBestEffort is the deferred exit flush: bounded by a short
// deadline so a vanished client cannot hold the handler in its exit
// path. What was served but never written is still counted.
func (c *conn) flushBestEffort() {
	c.cw.timeout = 100 * time.Millisecond
	c.flush()
	c.cw.fold()
}

// isFrameError reports whether a read-loop error indicates a framing
// violation rather than a closed/poked connection.
func isFrameError(err error) bool {
	return err != nil && (errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrFrameTooLarge))
}
