package server

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// conn is one served connection: a socket, its receive buffer and
// buffered writer, and the buffer.Session that makes this client a
// first-class BP-Wrapper backend — its accesses batch through the
// session's per-shard queues exactly like an in-process worker's.
type conn struct {
	srv    *Server
	nc     net.Conn
	fr     *frameReader
	cw     countingWriter
	bw     *bufio.Writer
	sess   *buffer.Session
	tracer *reqtrace.Tracer // the pool's request tracer; nil when disabled

	hdr [4 + frameHeaderLen]byte // response header scratch
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:    s,
		nc:     nc,
		fr:     newFrameReader(&countingReader{nc: nc, n: &s.c.bytesIn}, false),
		cw:     countingWriter{nc: nc, n: &s.c.bytesOut, timeout: s.cfg.WriteTimeout},
		sess:   s.pool.NewSession(),
		tracer: s.pool.Tracer(),
	}
	c.bw = bufio.NewWriterSize(&c.cw, s.cfg.WriteBufSize)
	return c
}

// countingReader/countingWriter fold socket byte counts into the server
// counters without another wrapper layer in the hot loop.
type countingReader struct {
	nc net.Conn
	n  *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	r.n.Add(int64(n))
	return n, err
}

// countingWriter is also where the write deadline is armed: a socket
// write is the only thing on the response path that can block, so each
// one — the batch flush and the implicit ones when bufio fills alike —
// gets a fresh timeout, and responses that only land in the buffer cost
// no timer.
type countingWriter struct {
	nc      net.Conn
	n       *atomic.Int64
	timeout time.Duration
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.nc.SetWriteDeadline(time.Now().Add(w.timeout)) //nolint:errcheck
	// Counted before the write and corrected after a short one, so that a
	// peer that has seen a response never reads a counter that lacks it.
	w.n.Add(int64(len(p)))
	n, err := w.nc.Write(p)
	if n < len(p) {
		w.n.Add(int64(n - len(p)))
	}
	return n, err
}

// serve is the connection's request loop. The batching contract: decode
// and answer every request already buffered before flushing responses or
// blocking for more bytes, so a pipelined burst that arrived in one
// kernel read is served as one batch through one session — and produces
// one response flush.
func (c *conn) serve() {
	s := c.srv
	defer func() {
		// Fold the session's batched accesses into its shard queues so a
		// vanished client's recorded history still reaches the policy.
		c.sess.Flush()
		c.flushBestEffort()
		c.nc.Close()
		s.unregister(c)
		s.wg.Done()
	}()
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
		s.c.inflight.Add(1)
		var t0 int64
		if tid != 0 && c.tracer != nil {
			t0 = c.tracer.Now()
		}
		start := time.Now()
		ok := c.handle(op, reqID, payload, tid)
		if op > 0 && op < opMax && s.c.lat[op] != nil {
			s.c.lat[op].RecordTraced(time.Since(start), tid)
		}
		if tid != 0 && c.tracer != nil {
			// The server-op span covers decode-to-response for the whole
			// request, bracketing the pool spans the adopted trace emitted.
			c.tracer.Emit(reqtrace.Span{
				Trace: tid, Phase: reqtrace.PhaseServer, Shard: -1,
				Flags: reqtrace.FlagRemote,
				Start: t0, Dur: c.tracer.Now() - t0,
				Arg1: uint64(op), Arg2: reqID,
			})
		}
		s.c.inflight.Add(-1)
		if !ok {
			return // unknown opcode after BadRequest response: resync is impossible
		}
		if c.fr.buffered() == 0 {
			if !c.flush() {
				return
			}
		}
	}
}

// handle dispatches one request and writes its response into the write
// buffer. It returns false when the connection cannot continue (the
// opcode was unknown, so frame alignment is unprovable, or the peer has
// stopped reading). tid, when
// non-zero, is the client's propagated trace ID, adopted for the pool
// access so one trace spans client, server, pool, and device.
func (c *conn) handle(code byte, reqID uint64, payload []byte, tid uint64) bool {
	s := c.srv
	if code > 0 && code < opMax {
		s.c.reqs[code].Add(1)
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
		if c.bw.Available() < len(c.hdr)+page.Size && !c.flush() {
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
	case OpStats:
		c.respond(StatusOK, reqID, s.remoteStatsPayload())
	default:
		c.respondBad(reqID, "unknown opcode")
		c.flush()
		return false
	}
	return true
}

// respond appends one response frame to the write buffer.
func (c *conn) respond(status byte, reqID uint64, payload []byte) {
	if status < statusMax {
		c.srv.c.resps[status].Add(1)
	}
	c.bw.Write(appendFrameHeader(c.hdr[:0], status, reqID, len(payload))) //nolint:errcheck // bufio errors are sticky; flush reports them
	c.bw.Write(payload)                                                   //nolint:errcheck
}

func (c *conn) respondErr(reqID uint64, err error) {
	c.respond(statusForErr(err), reqID, []byte(err.Error()))
}

func (c *conn) respondBad(reqID uint64, msg string) {
	c.srv.c.badFrames.Add(1)
	c.respond(StatusBadRequest, reqID, []byte(msg))
}

// flush pushes buffered responses to the socket. It reports false — and
// retires the connection — when the client is not draining its receive
// window fast enough for a write to finish within WriteTimeout.
func (c *conn) flush() bool {
	if err := c.bw.Flush(); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.srv.c.writeTimeouts.Add(1)
		}
		return false
	}
	return true
}

// flushBestEffort is the deferred exit flush: bounded by a short
// deadline so a vanished client cannot hold the handler in its exit
// path.
func (c *conn) flushBestEffort() {
	c.cw.timeout = 100 * time.Millisecond
	c.bw.Flush() //nolint:errcheck
}

// isFrameError reports whether a read-loop error indicates a framing
// violation rather than a closed/poked connection.
func isFrameError(err error) bool {
	return err != nil && (errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrFrameTooLarge))
}
