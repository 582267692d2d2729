// Package server exposes a buffer.Pool as a network page-cache service:
// a TCP front-end speaking a length-prefixed binary protocol, with one
// buffer.Session per connection so the BP-Wrapper batching machinery sees
// remote clients exactly the way it sees in-process backends.
//
// The protocol is deliberately minimal — five operations, pipelined by
// request ID — because the interesting part is not the wire format but
// what it feeds: a batched read loop decodes every request the kernel
// delivered in one syscall and pushes them through a single pool session
// before flushing responses, mirroring at the network layer the
// batching-of-operations idea BP-Wrapper applies at the lock layer.
//
// # Wire format
//
// Every frame, in both directions, is:
//
//	uint32  length   — big endian; counts code + id + payload (≥ 9)
//	uint8   code     — request opcode or response status
//	uint64  id       — request ID, echoed verbatim in the response
//	[]byte  payload  — op-specific; length-9 bytes
//
// Responses to one connection's requests are returned in request order,
// so a pipelining client matches responses to requests positionally and
// the echoed ID is a cross-check, not a reordering mechanism.
//
// Request payloads: GET/INVALIDATE carry an 8-byte big-endian PageID;
// PUT carries the PageID followed by exactly page.Size bytes; FLUSH
// carries nothing. Response payloads: a GET that succeeds returns the page
// bytes, FLUSH returns a uint64 count of pages made durable; any non-OK
// status carries a human-readable message. Counters are read remotely from
// /metrics, not over the wire protocol.
//
// # Trace context
//
// A request may carry a trace-context extension: setting the TraceFlag
// bit (0x80) on the code byte declares that the payload is prefixed with
// an 8-byte big-endian trace ID, which the server strips before op
// dispatch and adopts for the request's pool access — stitching the
// client's trace to the server-side spans (DESIGN.md §14). The framing is
// unchanged (same length prefix, same header), so servers and clients
// that never set the flag interoperate exactly as before; a server
// predating the extension answers a flagged request with BAD_REQUEST,
// which a client treats as "tracing unsupported", not data loss.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/storage"
)

// Request opcodes.
const (
	OpGet        byte = 1 // pin + read one page
	OpPut        byte = 2 // overwrite one page and mark it dirty
	OpInvalidate byte = 3 // drop one page, discarding dirty contents
	OpFlush      byte = 4 // write every dirty page back to the device

	opMax = 5 // one past the last opcode, for counter arrays
)

// TraceFlag marks a request code byte as carrying the trace-context
// extension: an 8-byte big-endian trace ID prefixed to the payload. The
// flag is masked off before dispatch, so opcodes stay below it.
const TraceFlag byte = 0x80

// Response statuses. The non-OK statuses are a wire encoding of the
// buffer/storage error taxonomy: the client maps them back onto the same
// sentinel errors (buffer.ErrOverloaded, storage.ErrInvalidPage, …) so
// remote callers branch with errors.Is exactly like in-process callers.
const (
	StatusOK          byte = 0
	StatusOverloaded  byte = 1 // miss shed by a read-only pool
	StatusInvalidPage byte = 2
	StatusNoBuffers   byte = 3 // every victim pinned, or quarantine full
	StatusDraining    byte = 4 // server past its drain grace; reconnect elsewhere
	StatusIOError     byte = 5 // device error that is none of the above
	StatusBadRequest  byte = 6 // malformed opcode or payload

	statusMax = 7
)

// frameHeaderLen is the fixed prefix every frame carries after the length
// word: code (1) + request ID (8).
const frameHeaderLen = 9

// MaxPayload bounds a frame's payload in both directions. It admits the
// largest legitimate frame — a PUT (8-byte PageID + one 8 KB page) — with
// headroom, while keeping the decoder's worst-case
// allocation fixed: a malicious length word can make it allocate at most
// this much, never the 4 GB a raw uint32 could demand.
const MaxPayload = 16 << 10

// ErrFrameTooLarge is returned by the decoder for a length word exceeding
// MaxPayload; the connection is no longer in sync and must be closed.
var ErrFrameTooLarge = errors.New("server: frame exceeds MaxPayload")

// ErrMalformedFrame is returned for a length word too small to hold the
// code and request ID.
var ErrMalformedFrame = errors.New("server: malformed frame (length < header)")

// ErrDraining is what a client's request resolves to when the server has
// passed its drain grace window: the request was not applied.
var ErrDraining = errors.New("server: draining")

var be = binary.BigEndian

// appendFrameHeader appends a frame's length word, code and request ID
// for a payload of payloadLen bytes that the caller supplies after it.
// Every encoder in the package — appendFrame, the client's requests, the
// server's responses — lays the header down through this one function.
func appendFrameHeader(dst []byte, code byte, reqID uint64, payloadLen int) []byte {
	dst = be.AppendUint32(dst, uint32(frameHeaderLen+payloadLen))
	dst = append(dst, code)
	return be.AppendUint64(dst, reqID)
}

// appendFrame appends one encoded frame to dst and returns the extended
// slice. The payload may be supplied in parts.
func appendFrame(dst []byte, code byte, reqID uint64, payload ...[]byte) []byte {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	dst = appendFrameHeader(dst, code, reqID, n)
	for _, p := range payload {
		dst = append(dst, p...)
	}
	return dst
}

// recvBufSize is the receive buffer every frameReader starts with, and
// the one a server connection keeps for life. It must hold the largest
// legal frame (length word + header + MaxPayload); beyond that it is the
// batching window: every request one kernel read delivered is decoded and
// served before responses are flushed.
const recvBufSize = 32 << 10

// Fails to compile if a maximal frame stops fitting the receive buffer.
const _ = uint(recvBufSize - (4 + frameHeaderLen + MaxPayload))

// frameReader decodes frames in place from one flat receive buffer that
// is filled straight from the stream: a payload is a slice of that
// buffer, never a copy. It is not safe for concurrent use.
type frameReader struct {
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is read but not yet decoded

	// keep, fixed at construction, says who reclaims the buffer. A plain
	// reader (a server connection) does it itself, between frames, so a
	// payload is valid only until the next one is decoded and the buffer
	// never grows. A keep reader (a client) never moves bytes within buf:
	// every payload stays valid until its owner calls reset, and when the
	// tail is too short it continues in a fresh, larger array, leaving the
	// old one to the payloads that alias it.
	keep bool
}

func newFrameReader(r io.Reader, keep bool) *frameReader {
	return &frameReader{r: r, buf: make([]byte, recvBufSize), keep: keep}
}

// buffered reports how many received bytes are waiting to be decoded.
func (fr *frameReader) buffered() int { return fr.wr - fr.rd }

// reset reclaims the buffer — undecoded bytes, if any, move to the front —
// which invalidates every payload returned so far. A keep reader's owner
// calls it where one burst's results die and the next begins.
func (fr *frameReader) reset() {
	fr.wr = copy(fr.buf, fr.buf[fr.rd:fr.wr])
	fr.rd = 0
}

// next decodes one frame; the returned payload aliases the receive buffer
// (see keep for how long). Malformed length words fail without allocating:
// the length is validated before room is made for the frame.
func (fr *frameReader) next() (code byte, reqID uint64, payload []byte, err error) {
	if err = fr.need(4); err != nil {
		return 0, 0, nil, err
	}
	length := be.Uint32(fr.buf[fr.rd:])
	if length < frameHeaderLen {
		return 0, 0, nil, fmt.Errorf("%w: length %d", ErrMalformedFrame, length)
	}
	if length > frameHeaderLen+MaxPayload {
		return 0, 0, nil, fmt.Errorf("%w: length %d", ErrFrameTooLarge, length)
	}
	if err = fr.need(4 + int(length)); err != nil {
		return 0, 0, nil, err
	}
	f := fr.buf[fr.rd+4 : fr.rd+4+int(length)]
	fr.rd += 4 + len(f)
	return f[0], be.Uint64(f[1:]), f[frameHeaderLen:], nil
}

// need blocks until at least n undecoded bytes are buffered (n is at most
// one maximal frame). A stream that ends first yields io.EOF if nothing
// was buffered — a frame boundary — and io.ErrUnexpectedEOF otherwise.
func (fr *frameReader) need(n int) error {
	if fr.wr-fr.rd >= n {
		return nil
	}
	if fr.keep {
		if fr.rd+n > len(fr.buf) {
			pending := fr.buf[fr.rd:fr.wr]
			fr.buf = make([]byte, 2*len(fr.buf))
			fr.rd, fr.wr = 0, copy(fr.buf, pending)
		}
	} else if fr.rd == fr.wr || fr.rd+n > len(fr.buf) {
		fr.reset() // an empty buffer costs nothing to reclaim and reads the most
	}
	for fr.wr-fr.rd < n {
		m, err := fr.r.Read(fr.buf[fr.wr:])
		fr.wr += m
		if err != nil && fr.wr-fr.rd < n {
			if fr.wr > fr.rd {
				err = eofIsUnexpected(err)
			}
			return err
		}
	}
	return nil
}

// eofIsUnexpected upgrades a mid-frame EOF: a clean EOF is only legal on
// a frame boundary.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// opName names an opcode for metrics labels and error messages.
func opName(code byte) string {
	switch code {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpInvalidate:
		return "invalidate"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("op(%d)", code)
	}
}

// statusName names a status for metrics labels and error messages.
func statusName(status byte) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusInvalidPage:
		return "invalid_page"
	case StatusNoBuffers:
		return "no_buffers"
	case StatusDraining:
		return "draining"
	case StatusIOError:
		return "io_error"
	case StatusBadRequest:
		return "bad_request"
	default:
		return fmt.Sprintf("status(%d)", status)
	}
}

// statusForErr maps a pool/storage error onto its wire status. The
// mapping is ordered from most to least specific: ErrQuarantineFull
// wraps ErrNoUnpinnedBuffers, so the shared NoBuffers status covers both
// the over-pinned pool and the saturated quarantine.
func statusForErr(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, buffer.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, storage.ErrInvalidPage):
		return StatusInvalidPage
	case errors.Is(err, buffer.ErrNoUnpinnedBuffers):
		return StatusNoBuffers
	default:
		return StatusIOError
	}
}

// errForStatus is the client-side inverse of statusForErr: it rebuilds an
// error wrapping the same sentinel the server-side error would satisfy,
// so errors.Is-based handling (shed detection, invalid-page checks) is
// identical for remote and in-process callers.
func errForStatus(status byte, msg []byte) error {
	m := string(msg)
	if m == "" {
		m = statusName(status)
	}
	switch status {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return fmt.Errorf("remote: %s: %w", m, buffer.ErrOverloaded)
	case StatusInvalidPage:
		return fmt.Errorf("remote: %s: %w", m, storage.ErrInvalidPage)
	case StatusNoBuffers:
		return fmt.Errorf("remote: %s: %w", m, buffer.ErrNoUnpinnedBuffers)
	case StatusDraining:
		return fmt.Errorf("remote: %s: %w", m, ErrDraining)
	default:
		return fmt.Errorf("remote: %s (%s)", m, statusName(status))
	}
}
