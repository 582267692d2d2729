package storage

import (
	"fmt"
	"sync"

	"bpwrapper/internal/page"
)

// ChecksumDevice wraps a Device with end-to-end data integrity: every
// successful write records the page's checksum in a side table, and every
// read of a page with a recorded checksum is verified against it. A
// mismatch — a torn write, bit rot, or injected corruption — returns an
// error wrapping ErrCorruptPage instead of silently serving bad bytes.
//
// Pages that were never written through this device (e.g. the deterministic
// pre-existing table data MemDevice synthesizes) have no recorded checksum
// and pass through unverified.
//
// The side table is sharded like MemDevice so verification does not become
// a lock hot spot of its own. Verification is not atomic with respect to a
// concurrent write of the same page; the buffer pool never issues those
// (write-back holds exclusive ownership of the page copy), and direct
// users must serialize same-page writes themselves.
type ChecksumDevice struct {
	backing Device
	shards  [64]sumShard
}

type sumShard struct {
	mu   sync.RWMutex
	sums map[page.PageID]uint64
}

// NewChecksumDevice wraps backing with checksum stamping and verification.
func NewChecksumDevice(backing Device) *ChecksumDevice {
	d := &ChecksumDevice{backing: backing}
	for i := range d.shards {
		d.shards[i].sums = make(map[page.PageID]uint64)
	}
	return d
}

func (d *ChecksumDevice) shard(id page.PageID) *sumShard {
	return &d.shards[uint64(id)*0x9e3779b97f4a7c15>>58]
}

// ReadPage implements Device: it delegates and then verifies the page
// against the checksum recorded at write time, if any.
func (d *ChecksumDevice) ReadPage(id page.PageID, p *page.Page) error {
	if err := d.backing.ReadPage(id, p); err != nil {
		return err
	}
	s := d.shard(id)
	s.mu.RLock()
	want, ok := s.sums[id]
	s.mu.RUnlock()
	if ok && p.Checksum() != want {
		return fmt.Errorf("storage: page %v read back with checksum %#x, want %#x: %w",
			id, p.Checksum(), want, ErrCorruptPage)
	}
	return nil
}

// WritePage implements Device: it delegates and, on success, records the
// page's checksum for future verification.
func (d *ChecksumDevice) WritePage(p *page.Page) error {
	if err := d.backing.WritePage(p); err != nil {
		return err
	}
	s := d.shard(p.ID)
	s.mu.Lock()
	s.sums[p.ID] = p.Checksum()
	s.mu.Unlock()
	return nil
}

// Stats implements Device: the backing device's counters. A detected
// corruption is counted nowhere; it surfaces as the read's ErrCorruptPage.
func (d *ChecksumDevice) Stats() DeviceStats { return d.backing.Stats() }
