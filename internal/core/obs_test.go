package core

import (
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

func obsEntry(i int) (page.PageID, page.BufferTag) {
	id := page.NewPageID(1, uint64(i))
	return id, page.BufferTag{}
}

func TestBatchSizeDistribution(t *testing.T) {
	w := New(replacer.NewLRU(64), Config{
		Batching:       true,
		QueueSize:      8,
		BatchThreshold: 4,
	})
	s := w.NewSession()
	for i := 0; i < 40; i++ {
		id, tag := obsEntry(i % 16)
		s.Hit(id, tag)
	}
	s.Flush()
	bs := w.BatchSizes()
	if bs.Count == 0 {
		t.Fatal("batch-size distribution empty")
	}
	if bs.Max > 8 {
		t.Fatalf("batch size %d exceeds queue size", bs.Max)
	}
	var total int64
	for _, c := range bs.Buckets {
		total += c
	}
	if total != bs.Count {
		t.Fatalf("bucket sum %d != count %d", total, bs.Count)
	}
	// Commits at the TryLock threshold dominate an uncontended run.
	if bs.Buckets[4] == 0 {
		t.Fatalf("no threshold-sized batches: %+v", bs)
	}
}
