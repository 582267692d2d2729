package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// gateDevice holds one armed page's next write at the device boundary so
// the drain-race test can open a write-in-flight window
// deterministically (the idiom from buffer's writeback_order tests): the
// entered channel closes when the held write has been issued, and the
// write completes only after release is closed.
type gateDevice struct {
	storage.Device
	mu      sync.Mutex
	target  page.PageID
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func newGateDevice(d storage.Device) *gateDevice { return &gateDevice{Device: d} }

func (d *gateDevice) arm(id page.PageID) (entered, release chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.target, d.armed = id, true
	d.entered = make(chan struct{})
	d.release = make(chan struct{})
	return d.entered, d.release
}

func (d *gateDevice) WritePage(p *page.Page) error {
	d.mu.Lock()
	hold := d.armed && p.ID == d.target
	var entered, release chan struct{}
	if hold {
		d.armed = false
		entered, release = d.entered, d.release
	}
	d.mu.Unlock()
	if hold {
		close(entered)
		<-release
	}
	return d.Device.WritePage(p)
}

// TestChaosClientVanishMidPipeline cuts a connection with a pipelined
// burst half-delivered: a full batch of PUTs, then a truncated frame,
// then an abrupt socket close. The server must retire the connection
// without panic or goroutine leak, fold the session's history into the
// pool, and keep serving other clients.
func TestChaosClientVanishMidPipeline(t *testing.T) {
	srv, _, done := newTestServer(t, 32, Config{})
	defer done()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var pg page.Page
	var raw []byte
	var pid [8]byte
	for i := uint64(0); i < 8; i++ {
		id := testPage(i)
		pg.Stamp(id)
		be.PutUint64(pid[:], uint64(id))
		raw = appendFrame(raw, OpPut, i, pid[:], pg.Data[:])
	}
	// Append half a frame: a believable length word, then silence.
	raw = append(raw, appendFrame(nil, OpPut, 99, pid[:], pg.Data[:])[:100]...)
	if _, err := nc.Write(raw); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	// Vanish without reading a single response.
	nc.Close()

	// The handler exits once it hits the cut; the pool keeps the eight
	// complete PUTs (they were applied when decoded, whether or not the
	// client ever read its acks).
	// (Seeing the eight PUTs first matters: before the server has accepted
	// the connection its active count is zero too.)
	waitFor(t, 2*time.Second, func() bool {
		return srv.c.reqs[OpPut].Load() == 8 && srv.c.active.Load() == 0
	})
	// What the handler served it also counted, although its last socket
	// write — where a connection's counts are folded into the server's —
	// may never have happened.
	if st := srv.Stats(); st.Responses["ok"] != 8 || st.Inflight != 0 {
		t.Fatalf("after the vanish: responses %v, %d in flight; want 8 OK and none", st.Responses, st.Inflight)
	}
	if got := srv.Pool().Stats().Dirty; got < 1 {
		t.Fatalf("pool dirty count %d after applied PUTs, want ≥ 1", got)
	}

	// A fresh client is served as if nothing happened — and observes the
	// vanished client's applied writes.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c.Close()
	id := testPage(3)
	pg.Stamp(id)
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, pg.Data[:]) {
		t.Fatal("vanished client's applied PUT not visible to a new client")
	}
	// And a graceful drain still completes cleanly with zero lost dirty.
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain after vanish: %v", err)
	}
}

// TestChaosSlowReaderBackpressure pins the write-backpressure valve: a
// client that pipelines hundreds of GETs and never reads must not park a
// handler goroutine forever. With a small write buffer and a short
// WriteTimeout the flush times out, the connection is abandoned and
// counted, and other clients are unaffected.
func TestChaosSlowReaderBackpressure(t *testing.T) {
	srv, _, done := newTestServer(t, 32, Config{
		writeBuf:     pageRespLen, // every page is its own socket write
		WriteTimeout: 200 * time.Millisecond,
	})
	defer done()

	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()

	var raw []byte
	var pid [8]byte
	for i := uint64(0); i < 500; i++ {
		be.PutUint64(pid[:], uint64(testPage(i%8)))
		raw = appendFrame(raw, OpGet, i, pid[:])
	}
	if _, err := slow.Write(raw); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	// Never read. The server's write path must hit the deadline: 500
	// pages ≈ 4 MB swamps the socket buffer, and a 4 KB ceiling on the
	// response buffer means a socket write per page.
	waitFor(t, 5*time.Second, func() bool { return srv.c.writeTimeouts.Load() >= 1 })
	waitFor(t, 2*time.Second, func() bool { return srv.c.active.Load() == 0 })

	// A well-behaved client on a fresh connection is served normally.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c.Close()
	if _, err := c.Get(testPage(1)); err != nil {
		t.Fatalf("Get after slow-reader cutoff: %v", err)
	}
}

// TestChaosDrainRacesCloseWithin races a graceful server drain against a
// direct Pool.CloseWithin while a dirty page's write-back is held at the
// device gate. Both closers must come out clean — the quarantine
// protocol serializes the write-back — and the device must hold the last
// acknowledged content.
func TestChaosDrainRacesCloseWithin(t *testing.T) {
	mem := storage.NewMemDevice()
	gate := newGateDevice(mem)
	pool := buffer.New(buffer.Config{
		Frames:        8,
		PolicyFactory: replacer.Factories()["lru"],
		Device:        gate,
	})
	srv, err := New(Config{Pool: pool, Addr: "127.0.0.1:0", DrainGrace: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Dirty the armed page over the wire, acknowledged.
	id := testPage(1)
	var pg page.Page
	pg.Stamp(testPage(4242))
	entered, release := gate.arm(id)
	if err := c.Put(id, pg.Data[:]); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Drain in one goroutine; its pool flush will block at the gate.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(10 * time.Second) }()
	<-entered // the drain's write-back is in flight and held

	// Race a direct CloseWithin against the in-flight drain flush.
	closeErr := make(chan error, 1)
	go func() { closeErr <- pool.CloseWithin(10 * time.Second) }()

	time.Sleep(20 * time.Millisecond) // let both closers lean on the gate
	close(release)

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("CloseWithin: %v", err)
	}
	var onDisk page.Page
	if err := mem.ReadPage(id, &onDisk); err != nil {
		t.Fatalf("device read: %v", err)
	}
	if !onDisk.VerifyStamp(testPage(4242)) {
		t.Fatal("device does not hold the acknowledged write after the racing closes")
	}
	if st := pool.Stats(); st.Dirty != 0 || st.Quarantined != 0 {
		t.Fatalf("pool not clean: dirty=%d quarantined=%d", st.Dirty, st.Quarantined)
	}
}

// TestChaosDrainUnderFireLosesNothing hammers the server with writer
// clients while a drain fires mid-burst, then verifies every PUT the
// server acknowledged OK is on the device — the over-the-wire statement
// of the zero-lost-dirty guarantee.
func TestChaosDrainUnderFireLosesNothing(t *testing.T) {
	mem := storage.NewMemDevice()
	pool := buffer.New(buffer.Config{
		Frames:        64,
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Device:        mem,
	})
	srv, err := New(Config{Pool: pool, Addr: "127.0.0.1:0", DrainGrace: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	const workers = 4
	type ack struct {
		id      page.PageID
		version int
	}
	acked := make([][]ack, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			var pg page.Page
			for v := 1; ; v++ {
				// Worker-owned pages: block w, w+workers, … so the last
				// acknowledged version per page is exact.
				id := page.NewPageID(2, uint64(w))
				pg.Stamp(page.NewPageID(uint32(0x200+v), uint64(w)))
				if err := c.Put(id, pg.Data[:]); err != nil {
					return // drain refused or cut us: stop, keep the acks
				}
				acked[w] = append(acked[w], ack{id: id, version: v})
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond) // let writes flow
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain under fire: %v", err)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if len(acked[w]) == 0 {
			continue // this worker never got an ack in; nothing to check
		}
		last := acked[w][len(acked[w])-1]
		var onDisk page.Page
		if err := mem.ReadPage(last.id, &onDisk); err != nil {
			t.Fatalf("worker %d: device read: %v", w, err)
		}
		if !onDisk.VerifyStamp(page.NewPageID(uint32(0x200+last.version), uint64(w))) {
			t.Fatalf("worker %d: device lost acknowledged version %d of page %v", w, last.version, last.id)
		}
	}
	if errors.Is(srv.Drain(time.Second), ErrDraining) == false {
		t.Fatal("second drain should be refused")
	}
}
