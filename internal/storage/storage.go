// Package storage models the disk subsystem beneath the buffer manager.
//
// The BP-Wrapper paper's scalability experiments (Figures 6 and 7) run with
// the working set fully cached, so the device is never touched; its overall-
// performance experiment (Figure 8) depends only on misses being orders of
// magnitude more expensive than hits. Accordingly the package provides a
// zero-cost device for the former and a latency-simulating device with
// bounded concurrency for the latter, both backed by a deterministic
// in-memory page store so data integrity can be verified end to end.
package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// ErrInvalidPage is returned when an operation names the invalid PageID.
var ErrInvalidPage = errors.New("storage: invalid page id")

// Device is the interface the buffer manager reads pages from and writes
// dirty pages back to. Implementations must be safe for concurrent use.
type Device interface {
	// ReadPage fills p with the content of the page identified by id.
	ReadPage(id page.PageID, p *page.Page) error

	// WritePage persists p's content under p.ID. It may read p for as
	// long as the call runs and must not touch it once it has returned,
	// whatever the outcome: p may be a live buffer frame — the pool
	// writes a dirty victim straight out of the frame it has claimed —
	// and that frame is refilled with another page the moment the call
	// is over. An implementation that hands the write to another
	// goroutine and may return before it finishes must copy the page
	// first.
	WritePage(p *page.Page) error

	// Stats returns cumulative operation counters.
	Stats() DeviceStats
}

// DeviceStats counts device activity. The error counters are populated by
// the fault-tolerance wrappers (FaultDevice, RetryDevice), which fold
// their backing device's stats into their own so that the whole stack's
// counters are visible from the outermost layer.
type DeviceStats struct {
	Reads  int64
	Writes int64
}

// deviceCounters is the shared atomic implementation behind Stats.
type deviceCounters struct {
	reads, writes atomic.Int64
}

func (c *deviceCounters) snapshot() DeviceStats {
	return DeviceStats{Reads: c.reads.Load(), Writes: c.writes.Load()}
}

// MemDevice is an in-memory page store. Pages never written return a
// deterministic pattern derived from their id (page.Stamp), modelling
// pre-existing table data without materialising terabytes.
//
// The store is sharded to keep the device from becoming a lock hot spot of
// its own — the experiments are about the replacement-algorithm lock.
type MemDevice struct {
	shards [64]memShard
	deviceCounters
}

type memShard struct {
	mu    sync.RWMutex
	pages map[page.PageID]*[page.Size]byte
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice {
	d := &MemDevice{}
	for i := range d.shards {
		d.shards[i].pages = make(map[page.PageID]*[page.Size]byte)
	}
	return d
}

func (d *MemDevice) shard(id page.PageID) *memShard {
	return &d.shards[uint64(id)*0x9e3779b97f4a7c15>>58]
}

// ReadPage implements Device.
func (d *MemDevice) ReadPage(id page.PageID, p *page.Page) error {
	if !id.Valid() {
		return ErrInvalidPage
	}
	d.reads.Add(1)
	s := d.shard(id)
	s.mu.RLock()
	data, ok := s.pages[id]
	if ok {
		// Copied under the lock: WritePage overwrites the stored page in
		// place.
		p.Data = *data
	}
	s.mu.RUnlock()
	if ok {
		p.ID = id
		return nil
	}
	p.Stamp(id)
	return nil
}

// WritePage implements Device. A page written before is overwritten in
// place, so only a page's first write allocates.
func (d *MemDevice) WritePage(p *page.Page) error {
	if !p.ID.Valid() {
		return ErrInvalidPage
	}
	d.writes.Add(1)
	s := d.shard(p.ID)
	s.mu.Lock()
	if data, ok := s.pages[p.ID]; ok {
		*data = p.Data
	} else {
		data := p.Data
		s.pages[p.ID] = &data
	}
	s.mu.Unlock()
	return nil
}

// Stats implements Device.
func (d *MemDevice) Stats() DeviceStats { return d.snapshot() }

// Len returns the number of explicitly written pages; used by tests.
func (d *MemDevice) Len() int {
	n := 0
	for i := range d.shards {
		d.shards[i].mu.RLock()
		n += len(d.shards[i].pages)
		d.shards[i].mu.RUnlock()
	}
	return n
}

// SimDisk wraps another device, adding a fixed per-operation latency and a
// bound on in-flight operations (modelling a disk array's limited
// parallelism). It is the substitute for the paper's RAID5 arrays in the
// Figure 8 experiment; only the hit/miss cost ratio matters there, not
// absolute seek times.
type SimDisk struct {
	backing Device
	latency time.Duration // per operation, reads and writes alike
	slots   chan struct{} // limits in-flight operations
	deviceCounters
}

// SimDiskConfig tunes a SimDisk.
type SimDiskConfig struct {
	// ReadLatency is the simulated service time per page read; a write
	// is served in the same time. Zero means 200µs, a fast disk array.
	ReadLatency time.Duration
}

// simDiskSpindles bounds a SimDisk's concurrently serviced operations: the
// number of independent spindles.
const simDiskSpindles = 8

// NewSimDisk returns a latency-simulating device over backing.
func NewSimDisk(backing Device, cfg SimDiskConfig) *SimDisk {
	if cfg.ReadLatency <= 0 {
		cfg.ReadLatency = 200 * time.Microsecond
	}
	return &SimDisk{
		backing: backing,
		latency: cfg.ReadLatency,
		slots:   make(chan struct{}, simDiskSpindles),
	}
}

// ReadPage implements Device: it acquires a service slot, sleeps the
// latency, and delegates to the backing store.
func (d *SimDisk) ReadPage(id page.PageID, p *page.Page) error {
	d.slots <- struct{}{}
	time.Sleep(d.latency)
	err := d.backing.ReadPage(id, p)
	<-d.slots
	d.reads.Add(1)
	return err
}

// WritePage implements Device.
func (d *SimDisk) WritePage(p *page.Page) error {
	d.slots <- struct{}{}
	time.Sleep(d.latency)
	err := d.backing.WritePage(p)
	<-d.slots
	d.writes.Add(1)
	return err
}

// Stats implements Device.
func (d *SimDisk) Stats() DeviceStats { return d.snapshot() }

// NullDevice serves every read instantly with the deterministic stamp and
// discards writes. It is used by the scalability experiments, where the
// buffer is pre-warmed and sized to the working set so the device should
// never matter; any accidental miss is still served correctly.
type NullDevice struct {
	deviceCounters
}

// NewNullDevice returns a NullDevice.
func NewNullDevice() *NullDevice { return &NullDevice{} }

// ReadPage implements Device.
func (d *NullDevice) ReadPage(id page.PageID, p *page.Page) error {
	if !id.Valid() {
		return ErrInvalidPage
	}
	d.reads.Add(1)
	p.Stamp(id)
	return nil
}

// WritePage implements Device.
func (d *NullDevice) WritePage(p *page.Page) error {
	if !p.ID.Valid() {
		return ErrInvalidPage
	}
	d.writes.Add(1)
	return nil
}

// Stats implements Device.
func (d *NullDevice) Stats() DeviceStats { return d.snapshot() }
