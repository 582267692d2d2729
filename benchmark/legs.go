package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"bpwrapper"
)

// Isolated legs: one goroutine, one layer, the layer beneath stubbed, median
// of legRounds rounds. They price a layer's own code; the in-run counters
// and the traced pass say how much of a request that code is.

const (
	legRounds = 7
	legFrames = 2048 // resident legs
	legChurn  = 512  // capacity of the legs that admit or miss on every call
	legPages  = 4096
)

// A leg times one operation. build returns the operation, run n times per
// call, and a teardown.
type leg struct {
	ns     string  // metric that receives the time per operation
	allocs string  // metric that receives heap allocations per operation, if any
	per    float64 // operations inside one op call (a Do batch is 16); 0 means 1
	fixed  int     // calls per round when calibration makes no sense; 0 calibrates
	scale  float64 // ns-to-unit factor for metrics not in ns; 0 means 1
	build  func(e *legEnv) (op func(n int), done func(), err error)
}

// legEnv is the input every leg draws on.
type legEnv struct {
	ids []bpwrapper.PageID
	st  stream // Zipf over legFrames pages, reads only
	pos int
	err error // first error an operation returned
}

// failed notes an operation's error; the leg is discarded if any occurred.
func (e *legEnv) failed(err error) bool {
	if err != nil && e.err == nil {
		e.err = err
	}
	return err != nil
}

func (e *legEnv) next() bpwrapper.PageID {
	id := e.ids[e.st[e.pos]]
	e.pos++
	if e.pos == len(e.st) {
		e.pos = 0
	}
	return id
}

// freshIDs hands out page IDs nothing has seen, from a table of their own,
// so every Admit is legal and every Get a miss.
type freshIDs struct{ n uint64 }

func (f *freshIDs) next() bpwrapper.PageID {
	f.n++
	return bpwrapper.NewPageID(2, f.n)
}

// stubDevice is the layer beneath the buffer legs: it does no copying and
// no bookkeeping, so a miss costs what the pool spends, not the device.
type stubDevice struct{}

func (stubDevice) ReadPage(id bpwrapper.PageID, p *bpwrapper.Page) error { p.ID = id; return nil }
func (stubDevice) WritePage(*bpwrapper.Page) error                       { return nil }
func (stubDevice) Stats() bpwrapper.DeviceStats                          { return bpwrapper.DeviceStats{} }

func noop() {}

func residentPolicy(name string, e *legEnv) bpwrapper.Policy {
	pol, _ := bpwrapper.NewPolicy(name, legFrames)
	for _, id := range e.ids[:legFrames] {
		pol.Admit(id)
	}
	return pol
}

func policyLegs() []leg {
	var legs []leg
	for _, name := range bpwrapper.PolicyNames() {
		name := name
		legs = append(legs,
			leg{ns: "replacer.hit_ns." + name, build: func(e *legEnv) (func(int), func(), error) {
				pol := residentPolicy(name, e)
				return func(n int) {
					for i := 0; i < n; i++ {
						pol.Hit(e.next())
					}
				}, noop, nil
			}},
			leg{ns: "replacer.admit_ns." + name, build: func(e *legEnv) (func(int), func(), error) {
				pol, _ := bpwrapper.NewPolicy(name, legChurn)
				var fresh freshIDs
				return func(n int) {
					for i := 0; i < n; i++ {
						pol.Admit(fresh.next())
					}
				}, noop, nil
			}},
		)
	}
	const walk = 32 // ids per Prefetch call: one default batch
	legs = append(legs, leg{ns: "replacer.prefetch_ns." + productPolicy, per: walk,
		build: func(e *legEnv) (func(int), func(), error) {
			pf, ok := residentPolicy(productPolicy, e).(bpwrapper.Prefetcher)
			if !ok {
				return nil, nil, fmt.Errorf("policy %s has no Prefetch", productPolicy)
			}
			batch := make([]bpwrapper.PageID, walk)
			return func(n int) {
				for i := 0; i < n; i++ {
					for k := range batch {
						batch[k] = e.next()
					}
					pf.Prefetch(batch)
				}
			}, noop, nil
		}})
	return legs
}

func coreLegs() []leg {
	hit := func(name string, cfg bpwrapper.WrapperConfig) leg {
		return leg{ns: "core.hit_ns." + name, build: func(e *legEnv) (func(int), func(), error) {
			s := bpwrapper.NewWrapper(residentPolicy(productPolicy, e), cfg).NewSession()
			return func(n int) {
				for i := 0; i < n; i++ {
					id := e.next()
					s.Hit(id, bpwrapper.BufferTag{Page: id})
				}
			}, s.Flush, nil
		}}
	}
	return []leg{
		hit("direct", bpwrapper.WrapperConfig{}),
		hit("batched", bpwrapper.WrapperConfig{Batching: true}),
		hit("batched_prefetch", bpwrapper.WrapperConfig{Batching: true, Prefetching: true}),
		hit("fc", bpwrapper.WrapperConfig{Batching: true, FlatCombining: true}),
		{ns: "core.miss_ns.batched", build: func(e *legEnv) (func(int), func(), error) {
			pol, _ := bpwrapper.NewPolicy(productPolicy, legChurn)
			s := bpwrapper.NewWrapper(pol, bpwrapper.WrapperConfig{Batching: true}).NewSession()
			var fresh freshIDs
			return func(n int) {
				for i := 0; i < n; i++ {
					id := fresh.next()
					s.Miss(id, bpwrapper.BufferTag{Page: id})
				}
			}, s.Flush, nil
		}},
	}
}

// legPool is the product pool over the stub device, without the background
// writer (a second goroutine has no place in an isolated leg).
func legPool(frames int, wrap bpwrapper.WrapperConfig, dev bpwrapper.Device) *bpwrapper.Pool {
	return bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        frames,
		Shards:        1,
		PolicyFactory: bpwrapper.PolicyFactories()[productPolicy],
		Wrapper:       wrap,
		Device:        dev,
		RecorderSize:  4096,
	})
}

var productWrapper = bpwrapper.WrapperConfig{Batching: true, Prefetching: true}

func bufferLegs() []leg {
	resident := func(ns, allocs string, wrap bpwrapper.WrapperConfig, write bool) leg {
		return leg{ns: ns, allocs: allocs, build: func(e *legEnv) (func(int), func(), error) {
			pool := legPool(legFrames, wrap, stubDevice{})
			if err := pool.Prewarm(e.ids[:legFrames]); err != nil {
				return nil, nil, err
			}
			s := pool.NewSession()
			return func(n int) {
				for i := 0; i < n; i++ {
					if write {
						ref, err := pool.GetWrite(s, e.next())
						if e.failed(err) {
							return
						}
						ref.MarkDirty()
						ref.Release()
					} else {
						ref, err := pool.Get(s, e.next())
						if e.failed(err) {
							return
						}
						ref.Release()
					}
				}
			}, func() { s.Flush(); pool.Close() }, nil
		}}
	}
	miss := func(ns, allocs string, dirty bool) leg {
		return leg{ns: ns, allocs: allocs, build: func(e *legEnv) (func(int), func(), error) {
			pool := legPool(legChurn, productWrapper, stubDevice{})
			s := pool.NewSession()
			var fresh freshIDs
			return func(n int) {
				for i := 0; i < n; i++ {
					if dirty {
						ref, err := pool.GetWrite(s, fresh.next())
						if e.failed(err) {
							return
						}
						ref.MarkDirty()
						ref.Release()
					} else {
						ref, err := pool.Get(s, fresh.next())
						if e.failed(err) {
							return
						}
						ref.Release()
					}
				}
			}, func() { s.Flush(); pool.Close() }, nil
		}}
	}
	return []leg{
		resident("buffer.get_hit_ns", "buffer.allocs_per_get_hit", productWrapper, false),
		resident("buffer.get_hit_ns.nowrap", "", bpwrapper.WrapperConfig{}, false),
		resident("buffer.getwrite_hit_ns", "", productWrapper, true),
		miss("buffer.get_miss_clean_ns", "buffer.allocs_per_get_miss", false),
		miss("buffer.get_miss_dirty_ns", "", true),
	}
}

func storageLegs() []leg {
	filled := func(e *legEnv) (bpwrapper.Device, error) {
		dev := bpwrapper.NewMemDevice()
		return dev, fillDevice(dev, e.ids)
	}
	return []leg{
		{ns: "storage.mem_read_ns", build: func(e *legEnv) (func(int), func(), error) {
			dev, err := filled(e)
			var p bpwrapper.Page
			return func(n int) {
				for i := 0; i < n; i++ {
					if e.failed(dev.ReadPage(e.next(), &p)) {
						return
					}
				}
			}, noop, err
		}},
		{ns: "storage.mem_write_ns", allocs: "storage.allocs_per_write", build: func(e *legEnv) (func(int), func(), error) {
			dev, err := filled(e)
			var p bpwrapper.Page
			return func(n int) {
				for i := 0; i < n; i++ {
					p.ID = e.next()
					if e.failed(dev.WritePage(&p)) {
						return
					}
				}
			}, noop, err
		}},
		{ns: "page.stamp_ns", build: func(e *legEnv) (func(int), func(), error) {
			var p bpwrapper.Page
			return func(n int) {
				for i := 0; i < n; i++ {
					p.Stamp(e.next())
				}
			}, noop, nil
		}},
		{ns: "page.checksum_ns", build: func(e *legEnv) (func(int), func(), error) {
			var p bpwrapper.Page
			p.Stamp(e.ids[0])
			return func(n int) {
				for i := 0; i < n; i++ {
					sink ^= p.Checksum()
				}
			}, noop, nil
		}},
	}
}

// sink keeps results the compiler could otherwise discard.
var sink uint64

// serverRig is the product pool, every page resident, behind an in-process
// server with one client.
type serverRig struct {
	pool *bpwrapper.Pool
	srv  *bpwrapper.CacheServer
	cl   *bpwrapper.CacheClient
}

func newServerRig(e *legEnv) (*serverRig, error) {
	dev := bpwrapper.NewMemDevice()
	if err := fillDevice(dev, e.ids[:legFrames]); err != nil {
		return nil, err
	}
	r := &serverRig{pool: legPool(legFrames, productWrapper, dev)}
	err := r.pool.Prewarm(e.ids[:legFrames])
	if err == nil {
		r.srv, err = bpwrapper.NewCacheServer(bpwrapper.CacheServerConfig{Pool: r.pool, Addr: "127.0.0.1:0"})
	}
	if err == nil {
		r.cl, err = bpwrapper.DialCache(r.srv.Addr())
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *serverRig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.pool.Close()
}

const doBatch = 16

func serverLegs() []leg {
	sync1 := func(ns, allocs string, put bool) leg {
		return leg{ns: ns, allocs: allocs, build: func(e *legEnv) (func(int), func(), error) {
			r, err := newServerRig(e)
			if err != nil {
				return nil, nil, err
			}
			buf := make([]byte, bpwrapper.PageSize)
			return func(n int) {
				for i := 0; i < n; i++ {
					id := e.next()
					var err error
					if put {
						stampPage(buf, id, 1)
						err = r.cl.Put(id, buf)
					} else {
						_, err = r.cl.Get(id)
					}
					if e.failed(err) {
						return
					}
				}
			}, r.close, nil
		}}
	}
	do16 := func(ns, allocs string, code byte) leg {
		return leg{ns: ns, allocs: allocs, per: doBatch, build: func(e *legEnv) (func(int), func(), error) {
			r, err := newServerRig(e)
			if err != nil {
				return nil, nil, err
			}
			buf := make([]byte, bpwrapper.PageSize)
			ops := make([]bpwrapper.CacheOp, doBatch)
			return func(n int) {
				for i := 0; i < n; i++ {
					for k := range ops {
						ops[k] = bpwrapper.CacheOp{Code: code, Page: e.next(), Data: buf}
					}
					if _, err := r.cl.Do(ops); e.failed(err) {
						return
					}
				}
			}, r.close, nil
		}}
	}
	return []leg{
		sync1("server.get_rtt_ns", "server.allocs_per_get", false),
		sync1("server.put_rtt_ns", "", true),
		do16("server.do16_get_ns_per_op", "server.allocs_per_do16_op", bpwrapper.CacheOpGet),
		do16("server.do16_put_ns_per_op", "", bpwrapper.CacheOpPut),
	}
}

// Echo frame sizes: a GET request is 17 bytes on the wire and its response
// one page plus a 13-byte header.
const (
	echoReq  = 17
	echoResp = bpwrapper.PageSize + 13
)

func hostLegs() []leg {
	return []leg{
		{ns: "host.calib_alu_ms", fixed: 1, scale: 1e-6, build: func(*legEnv) (func(int), func(), error) {
			return func(n int) {
				x := uint64(88172645463325252)
				for i := 0; i < n*10_000_000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sink ^= x
			}, noop, nil
		}},
		// A dependent chase over 1 MiB, one word per cache line: what a
		// neighbour on the same core slows down (README, "What this host
		// does") while the ALU loop above holds still.
		{ns: "host.calib_chase1m_ns", build: func(*legEnv) (func(int), func(), error) {
			const lines = 1 << 20 / 64
			next := make([]uint32, lines*16)
			at := uint32(0)
			for i := 1; i <= lines; i++ { // 7919 is prime to lines: one cycle through all of them
				to := uint32(i*7919%lines) * 16
				next[at] = to
				at = to
			}
			return func(n int) {
				j := at
				for i := 0; i < n; i++ {
					j = next[j]
				}
				at = j
				sink ^= uint64(j)
			}, noop, nil
		}},
		{ns: "host.calib_copy8k_ns", build: func(*legEnv) (func(int), func(), error) {
			bufs := make([][bpwrapper.PageSize]byte, 256)
			k := 0
			return func(n int) {
				for i := 0; i < n; i++ {
					copy(bufs[k&255][:], bufs[(k+97)&255][:])
					k++
				}
			}, noop, nil
		}},
		{ns: "host.calib_echo_rtt_ns", build: echoLeg},
		{ns: "host.timer_tick_us", fixed: 20, scale: 1e-3, build: func(*legEnv) (func(int), func(), error) {
			return func(n int) {
				for i := 0; i < n; i++ {
					time.Sleep(50 * time.Microsecond)
				}
			}, noop, nil
		}},
		{ns: "host.clock_ns", build: func(*legEnv) (func(int), func(), error) {
			return func(n int) {
				for i := 0; i < n; i++ {
					sink ^= uint64(now())
				}
			}, noop, nil
		}},
	}
}

// echoLeg is a bare TCP round trip with a GET's frame sizes and none of the
// repo's code: the floor under server.get_rtt_ns.
func echoLeg(e *legEnv) (func(int), func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, resp := make([]byte, echoReq), make([]byte, echoResp)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-served
		return nil, nil, err
	}
	req, resp := make([]byte, echoReq), make([]byte, echoResp)
	return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := c.Write(req); e.failed(err) {
					return
				}
				if _, err := io.ReadFull(c, resp); e.failed(err) {
					return
				}
			}
		}, func() {
			c.Close()
			ln.Close()
			<-served
		}, nil
}

func allLegs() []leg {
	var legs []leg
	for _, group := range [][]leg{hostLegs(), policyLegs(), coreLegs(), bufferLegs(), storageLegs(), serverLegs()} {
		legs = append(legs, group...)
	}
	return legs
}

// timeLeg calibrates the call count to fill round, then takes the median of
// legRounds rounds: ns and heap allocations per operation.
func timeLeg(l leg, op func(int), round time.Duration) (nsPerOp, allocsPerOp float64) {
	n := l.fixed
	if n == 0 {
		n = 16
		for {
			t0 := now()
			op(n)
			dt := now() - t0
			if dt >= int64(round)/4 || n >= 1<<28 {
				n = int(float64(n)*float64(round)/float64(dt)) + 1
				break
			}
			n *= 4
		}
	}
	per := l.per
	if per == 0 {
		per = 1
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < legRounds; r++ {
		runtime.ReadMemStats(&m0)
		t0 := now()
		op(n)
		dt := now() - t0
		runtime.ReadMemStats(&m1)
		ops := float64(n) * per
		ns = append(ns, float64(dt)/ops)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/ops)
	}
	return median(ns), median(allocs)
}

// runLegs measures every isolated leg inside about budget and returns the
// per-layer metrics they yield, including the derived ones.
func runLegs(seed int64, budget time.Duration) (map[string]float64, error) {
	e := &legEnv{ids: pageIDs(legPages), st: genInputs(seed, 1, legFrames, legFrames, 0).streams[0]}
	legs := allLegs()
	// legRounds measured rounds plus roughly two spent calibrating
	round := budget / time.Duration(len(legs)*(legRounds+2))
	out := make(map[string]float64)
	for _, l := range legs {
		op, done, err := l.build(e)
		if err != nil {
			return nil, fmt.Errorf("leg %s: %w", l.ns, err)
		}
		ns, allocs := timeLeg(l, op, round)
		done()
		if e.err != nil {
			return nil, fmt.Errorf("leg %s: %w", l.ns, e.err)
		}
		if l.scale != 0 {
			ns *= l.scale
		}
		out[l.ns] = ns
		if l.allocs != "" {
			out[l.allocs] = allocs
		}
	}

	// Bytes on the wire per GET come from the server's own counters.
	r, err := newServerRig(e)
	if err != nil {
		return nil, err
	}
	const gets = 1000
	s0 := r.srv.Stats()
	for i := 0; i < gets; i++ {
		if _, err := r.cl.Get(e.next()); err != nil {
			r.close()
			return nil, fmt.Errorf("leg server bytes: %w", err)
		}
	}
	s1 := r.srv.Stats()
	r.close()
	out["server.bytes_in_per_get"] = float64(s1.BytesIn-s0.BytesIn) / gets
	out["server.bytes_out_per_get"] = float64(s1.BytesOut-s0.BytesOut) / gets
	out["server.wire_overhead_ns"] = out["server.get_rtt_ns"] - out["buffer.get_hit_ns"]
	return out, nil
}
