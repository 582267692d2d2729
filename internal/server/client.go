package server

import (
	"fmt"
	"net"
	"time"

	"bpwrapper/internal/page"
)

// Client is one connection to a bpserver. It mirrors the pool's session
// contract: not safe for concurrent use — one client per worker — so the
// pipelining machinery needs no locks and the server can map the
// connection onto a single buffer.Session.
type Client struct {
	nc    net.Conn
	fr    *frameReader
	next  uint64 // next request ID
	trace uint64 // trace ID attached to outgoing requests; 0 = untraced

	// One burst on its way out: wbuf holds the request headers, bufs the
	// burst in wire order — runs of wbuf with the callers' PUT pages
	// between them — and wv is bufs as WriteTo consumes it (a field so
	// that the call has nothing to move to the heap).
	wbuf     []byte
	bufs, wv net.Buffers

	res []OpResult // Do's results, reused from call to call
}

// SetTraceID attaches a trace ID to every subsequent request (via the
// protocol's trace-context extension) until changed; zero clears it. The
// server adopts the ID for the request's pool access, so the client's
// trace and the server-side spans share one identity end to end.
func (c *Client) SetTraceID(id uint64) { c.trace = id }

// reqHeaderMax is the most bytes a request puts in wbuf: length word,
// frame header, trace ID, PageID.
const reqHeaderMax = 4 + frameHeaderLen + 8 + 8

// send encodes ops as requests base, base+1, … and hands them to the
// kernel in one write. Nothing is copied on the way: headers are encoded
// where they are sent from, and a PUT's page goes out of the caller's own
// slice.
func (c *Client) send(ops []Op, base uint64) error {
	// Sized before encoding: bufs holds slices of wbuf, which must not move.
	if n := len(ops) * reqHeaderMax; cap(c.wbuf) < n {
		c.wbuf = make([]byte, 0, n)
	}
	buf, bufs, run := c.wbuf[:0], c.bufs[:0], 0
	for i, op := range ops {
		code, n := op.Code, 0
		if c.trace != 0 {
			code |= TraceFlag
			n += 8
		}
		hasPage := op.Code != OpFlush
		if hasPage {
			n += 8
		}
		if op.Code == OpPut {
			if len(op.Data) != page.Size {
				return fmt.Errorf("client: op %d: PUT data must be %d bytes, got %d", i, page.Size, len(op.Data))
			}
			n += page.Size
		}
		buf = appendFrameHeader(buf, code, base+uint64(i), n)
		if c.trace != 0 {
			buf = be.AppendUint64(buf, c.trace)
		}
		if hasPage {
			buf = be.AppendUint64(buf, uint64(op.Page))
		}
		if op.Code == OpPut {
			bufs = append(bufs, buf[run:], op.Data)
			run = len(buf)
		}
	}
	if run < len(buf) {
		bufs = append(bufs, buf[run:])
	}
	c.bufs, c.wv = bufs, bufs
	_, err := c.wv.WriteTo(c.nc) // writev; drops each entry once it is sent
	return err
}

// Dial connects to a bpserver at addr.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Client{nc: nc, fr: newFrameReader(nc, true)}, nil
}

// Close hangs up. In-flight pipelined requests are abandoned.
func (c *Client) Close() error { return c.nc.Close() }

// roundTrip sends one request and reads its response, verifying the
// echoed ID. The returned payload aliases the receive buffer: valid
// until the next call.
func (c *Client) roundTrip(op Op) (status byte, resp []byte, err error) {
	c.fr.reset() // the previous call's results die here
	id := c.next
	c.next++
	ops := [1]Op{op}
	if err = c.send(ops[:], id); err != nil {
		return 0, nil, err
	}
	status, gotID, resp, err := c.fr.next()
	if err != nil {
		return 0, nil, err
	}
	if gotID != id {
		return 0, nil, fmt.Errorf("client: response ID %d for request %d (stream desynced)", gotID, id)
	}
	return status, resp, nil
}

// Get fetches page id. The returned bytes alias the client's receive
// buffer and are valid only until the next call; copy to retain.
func (c *Client) Get(id page.PageID) ([]byte, error) {
	status, resp, err := c.roundTrip(Op{Code: OpGet, Page: id})
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, errForStatus(status, resp)
	}
	if len(resp) != page.Size {
		return nil, fmt.Errorf("client: GET returned %d bytes, want %d", len(resp), page.Size)
	}
	return resp, nil
}

// Put overwrites page id with data (exactly page.Size bytes) and marks
// it dirty. A nil return means the server applied and acknowledged the
// write: it is resident-dirty there and a graceful drain will flush it.
func (c *Client) Put(id page.PageID, data []byte) error {
	status, resp, err := c.roundTrip(Op{Code: OpPut, Page: id, Data: data})
	if err != nil {
		return err
	}
	return errForStatus(status, resp)
}

// Invalidate drops page id server-side, discarding dirty contents.
func (c *Client) Invalidate(id page.PageID) error {
	status, resp, err := c.roundTrip(Op{Code: OpInvalidate, Page: id})
	if err != nil {
		return err
	}
	return errForStatus(status, resp)
}

// Flush asks the server to write every dirty page back, returning the
// number made durable.
func (c *Client) Flush() (int, error) {
	status, resp, err := c.roundTrip(Op{Code: OpFlush})
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, errForStatus(status, resp)
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("client: FLUSH returned %d bytes, want 8", len(resp))
	}
	return int(be.Uint64(resp)), nil
}

// Op is one operation in a pipelined batch.
type Op struct {
	Code byte
	Page page.PageID
	Data []byte // PUT page bytes; ignored for other ops
}

// OpResult is one pipelined operation's outcome. Data is a successful
// GET's page where the kernel put it: it aliases the client's receive
// buffer and is valid until the next call on this client; copy to retain.
type OpResult struct {
	Status byte
	Err    error
	Data   []byte
}

// Do sends a batch of operations in one write — the client half of the
// server's batched decode: the whole burst lands in one (or few) kernel
// reads, is served as one batch through the connection's session, and
// comes back under one response flush. Results are positional. A
// transport error fails the whole batch; per-op failures (shed misses,
// invalid pages) land in their slot's Err.
//
// The returned slice and every Data in it belong to the client and are
// valid until the next call on it — the rule Get documents for its page.
// The receive buffer grows to hold a whole burst's responses (at most
// twice their size) and is never shrunk: a client keeps the memory of its
// largest Do until it is closed, so bound the burst, not just the rate.
func (c *Client) Do(ops []Op) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	c.fr.reset() // the previous call's results die here
	base := c.next
	c.next += uint64(len(ops))
	if err := c.send(ops, base); err != nil {
		return nil, err
	}
	if cap(c.res) < len(ops) {
		c.res = make([]OpResult, len(ops))
	}
	out := c.res[:len(ops)]
	// The reader holds every response since reset in place, so the pages
	// below can be handed out as they lie.
	for i := range ops {
		status, gotID, resp, err := c.fr.next()
		if err != nil {
			return nil, fmt.Errorf("client: Do[%d]: %w", i, err)
		}
		if gotID != base+uint64(i) {
			return nil, fmt.Errorf("client: Do[%d]: response ID %d, want %d (stream desynced)", i, gotID, base+uint64(i))
		}
		out[i] = OpResult{Status: status}
		if status != StatusOK {
			out[i].Err = errForStatus(status, resp)
		} else if ops[i].Code == OpGet {
			out[i].Data = resp
		}
	}
	return out, nil
}
