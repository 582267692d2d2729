package page

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewPageIDRoundTrip(t *testing.T) {
	cases := []struct {
		table uint32
		block uint64
	}{
		{1, 0},
		{1, 1},
		{42, 1 << 20},
		{1<<20 - 1, 1<<44 - 1},
	}
	for _, c := range cases {
		id := NewPageID(c.table, c.block)
		if id.Table() != c.table || id.Block() != c.block {
			t.Errorf("NewPageID(%d,%d) round-trips to (%d,%d)", c.table, c.block, id.Table(), id.Block())
		}
		if !id.Valid() {
			t.Errorf("NewPageID(%d,%d) reports invalid", c.table, c.block)
		}
	}
}

func TestQuickPageIDRoundTrip(t *testing.T) {
	prop := func(table uint32, block uint64) bool {
		table = table%(1<<20-1) + 1
		block %= 1 << 44
		id := NewPageID(table, block)
		return id.Table() == table && id.Block() == block && id.Valid()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageIDValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPageID(0, 5) },
		func() { NewPageID(1<<20, 0) },
		func() { NewPageID(3, 1<<44) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range PageID accepted")
				}
			}()
			fn()
		}()
	}
}

func TestInvalidPageID(t *testing.T) {
	if InvalidPageID.Valid() {
		t.Error("InvalidPageID reports valid")
	}
	if got := InvalidPageID.String(); got != "invalid" {
		t.Errorf("InvalidPageID.String() = %q", got)
	}
	if got := NewPageID(7, 9).String(); got != "7:9" {
		t.Errorf("String() = %q, want 7:9", got)
	}
}

func TestBufferTagMatches(t *testing.T) {
	a := BufferTag{Page: NewPageID(1, 2), Gen: 3}
	if !a.Matches(a) {
		t.Error("tag does not match itself")
	}
	if a.Matches(BufferTag{Page: a.Page, Gen: 4}) {
		t.Error("generation mismatch matched")
	}
	if a.Matches(BufferTag{Page: NewPageID(1, 3), Gen: 3}) {
		t.Error("page mismatch matched")
	}
	if !a.Matches(BufferTag{Page: a.Page, Gen: 3, Slot: 9}) {
		t.Error("the slot is a locator, not part of the identity, yet it broke the match")
	}
}

func TestStampVerify(t *testing.T) {
	var p Page
	id := NewPageID(5, 77)
	p.Stamp(id)
	if p.ID != id {
		t.Errorf("Stamp set ID %v", p.ID)
	}
	if !p.VerifyStamp(id) {
		t.Error("VerifyStamp rejects its own stamp")
	}
	if p.VerifyStamp(NewPageID(5, 78)) {
		t.Error("VerifyStamp accepts wrong id")
	}
	p.Data[100]++
	if p.VerifyStamp(id) {
		t.Error("VerifyStamp accepts corrupted page")
	}
}

func TestStampDistinct(t *testing.T) {
	// Different pages must get different contents (overwhelmingly likely;
	// check a sample).
	r := rand.New(rand.NewSource(1))
	var a, b Page
	for i := 0; i < 50; i++ {
		x := NewPageID(uint32(r.Intn(100)+1), r.Uint64()%1000)
		y := NewPageID(uint32(r.Intn(100)+1), r.Uint64()%1000)
		if x == y {
			continue
		}
		a.Stamp(x)
		b.Stamp(y)
		if a.Data == b.Data {
			t.Fatalf("pages %v and %v stamp identically", x, y)
		}
	}
}

func TestChecksumStable(t *testing.T) {
	var p Page
	p.Stamp(NewPageID(2, 2))
	c1 := p.Checksum()
	c2 := p.Checksum()
	if c1 != c2 {
		t.Error("checksum not deterministic")
	}
	p.Data[0] ^= 1
	if p.Checksum() == c1 {
		t.Error("checksum ignores corruption")
	}
}

func TestQuickStampRoundTrip(t *testing.T) {
	prop := func(table uint32, block uint64) bool {
		table = table%1000 + 1
		block %= 1 << 30
		id := NewPageID(table, block)
		var p Page
		p.Stamp(id)
		return p.VerifyStamp(id)
	}
	cfg := &quick.Config{MaxCount: 25, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(uint32(r.Uint64()))
		vs[1] = reflect.ValueOf(r.Uint64())
	}}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
