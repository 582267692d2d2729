package metrics

import (
	"sync"
	"testing"
)

func TestCountDistBasics(t *testing.T) {
	d := NewCountDist(8)
	for v := 0; v <= 8; v++ {
		d.Observe(v)
	}
	d.Observe(100) // overflow
	d.Observe(-5)  // clamped to 0
	s := d.Snapshot()
	if s.Count != 11 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 100 {
		t.Fatalf("max = %d", s.Max)
	}
	if s.Buckets[0] != 2 { // the 0 observation and the clamped -5
		t.Fatalf("bucket 0 = %d", s.Buckets[0])
	}
	for v := 1; v <= 7; v++ {
		if s.Buckets[v] != 1 {
			t.Fatalf("bucket %d = %d", v, s.Buckets[v])
		}
	}
	if over := s.Buckets[len(s.Buckets)-1]; over != 2 { // 8 and 100
		t.Fatalf("overflow bucket = %d", over)
	}
	if want := float64(0+1+2+3+4+5+6+7+8+100+0) / 11; s.Mean() != want {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
}

func TestCountDistConcurrent(t *testing.T) {
	d := NewCountDist(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				d.Observe(i % 20)
			}
		}(g)
	}
	wg.Wait()
	s := d.Snapshot()
	if s.Count != 40000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 19 {
		t.Fatalf("max = %d", s.Max)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d at quiescence", total, s.Count)
	}
}

func TestCountDistValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewCountDist(0)
}
