package buffer

import (
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
)

func TestPageRefAccessors(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()
	ref, err := p.Get(s, pid(3))
	if err != nil {
		t.Fatal(err)
	}
	if ref.ID() != pid(3) {
		t.Errorf("ID()=%v", ref.ID())
	}
	if ref.Tag().Page != pid(3) || ref.Tag().Gen == 0 {
		t.Errorf("Tag()=%+v", ref.Tag())
	}
	if len(ref.Data()) != page.Size {
		t.Errorf("Data() length %d", len(ref.Data()))
	}
	ref.Release()
}

func TestDataOnReleasedPanics(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()
	ref, _ := p.Get(s, pid(1))
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Data on released ref not detected")
		}
	}()
	ref.Data()
}

func TestMarkDirtyOnReleasedPanics(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()
	ref, _ := p.GetWrite(s, pid(1))
	ref.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty on released ref not detected")
		}
	}()
	ref.MarkDirty()
}

func TestFrameTagStableWhilePinned(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	ref, _ := p.Get(s, pid(1))
	tag := ref.Tag()
	// Churn the other frame heavily; the pinned frame's tag must not move.
	for i := uint64(10); i < 30; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if got, ok := ref.Frame().TagSnapshot(); !ok || !got.Matches(tag) {
		t.Fatalf("pinned frame's tag changed: %+v -> %+v", tag, got)
	}
	ref.Release()
}

func TestGenerationAdvancesOnReuse(t *testing.T) {
	p := newTestPool(1, core.Config{})
	s := p.NewSession()
	r1, _ := p.Get(s, pid(1))
	gen1 := r1.Tag().Gen
	r1.Release()
	r2, _ := p.Get(s, pid(2)) // evicts 1, reuses the frame
	gen2 := r2.Tag().Gen
	r2.Release()
	if gen2 <= gen1 {
		t.Fatalf("generation did not advance on frame reuse: %d -> %d", gen1, gen2)
	}
}
