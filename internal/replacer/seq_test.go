package replacer

import (
	"testing"

	"bpwrapper/internal/page"
)

// seqID builds PageIDs with controllable table/block for the detector
// tests.
func seqID(table uint32, block uint64) PageID { return page.NewPageID(table, block) }

// TestSEQDetectsScans checks the core behaviour: after the detection
// threshold, sequentially missed pages are scan-marked and evicted before
// the hot set.
func TestSEQDetectsScans(t *testing.T) {
	p := NewSEQTuned(8, 3)
	// Hot set on table 1, non-sequential blocks.
	hot := []PageID{seqID(1, 10), seqID(1, 500), seqID(1, 77), seqID(1, 3000)}
	for _, id := range hot {
		p.Admit(id)
		p.Hit(id)
	}
	// A long scan over table 2.
	for b := uint64(0); b < 40; b++ {
		if p.Contains(seqID(2, b)) {
			continue
		}
		p.Admit(seqID(2, b))
	}
	for _, id := range hot {
		if !p.Contains(id) {
			t.Fatalf("scan evicted hot page %v", id)
		}
	}
	if p.ScanResident() == 0 {
		t.Fatal("no pages were scan-marked during a 40-page sequential run")
	}
}

// TestSEQScanPagesEvictedFirst checks eviction preference.
func TestSEQScanPagesEvictedFirst(t *testing.T) {
	p := NewSEQTuned(6, 2)
	p.Admit(seqID(1, 100)) // random page
	// Sequential run on table 2: blocks 0..3; detection fires at run 2.
	for b := uint64(0); b < 4; b++ {
		p.Admit(seqID(2, b))
	}
	// Evictions must take the scan pages (oldest first) before block 100.
	v, ok := p.Evict()
	if !ok {
		t.Fatal("evict failed")
	}
	if v.Table() != 2 {
		t.Fatalf("first victim %v is not a scan page", v)
	}
	if !p.Contains(seqID(1, 100)) {
		t.Fatal("non-scan page evicted while scan pages remain")
	}
}

// TestSEQReReferencePromotes checks a re-referenced scan page joins the
// main list and stops being a preferred victim.
func TestSEQReReferencePromotes(t *testing.T) {
	p := NewSEQTuned(8, 2)
	for b := uint64(0); b < 4; b++ {
		p.Admit(seqID(2, b))
	}
	before := p.ScanResident()
	if before == 0 {
		t.Fatal("setup: no scan pages")
	}
	p.Hit(seqID(2, 3))
	if p.ScanResident() != before-1 {
		t.Fatal("re-referenced scan page not promoted")
	}
}

// TestSEQBrokenRunResets checks that non-consecutive misses reset the
// detector.
func TestSEQBrokenRunResets(t *testing.T) {
	p := NewSEQTuned(16, 3)
	p.Admit(seqID(3, 1))
	p.Admit(seqID(3, 2)) // run = 2, below threshold
	p.Admit(seqID(3, 9)) // gap: run resets
	p.Admit(seqID(3, 10))
	if p.ScanResident() != 0 {
		t.Fatalf("scan pages marked without a threshold-length run: %d", p.ScanResident())
	}
}
