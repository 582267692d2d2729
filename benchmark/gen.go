package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"bpwrapper"
)

// The harness owns the inputs: op streams are generated here, up front,
// from the seed, and the program under test only ever sees page IDs and
// page bytes. Streams are cyclic; 256 Ki ops keep a stream (1 MiB) and the
// pool metadata it indexes inside L2 so slices measure the code, not the
// memory system (see README, "Sizing").
const (
	streamOps = 256 << 10
	writeBit  = 1 << 31
	zipfS     = 1.1
)

// A stream is one worker's op sequence: page index in the low bits,
// writeBit set for a write.
type stream []uint32

// inputs is everything a workload's run is a function of. The same seed
// gives the same inputs.
type inputs struct {
	ids     []bpwrapper.PageID
	streams []stream // one per caller
	owner   []uint8  // per page index: the one caller that writes it
	hot     []uint32 // the frames most popular pages, the prewarm set
}

// genInputs draws one stream per caller. Page popularity is Zipf(s=1.1) over
// ranks; ranks are scattered over the page range by an odd multiplier derived
// from the seed (a bijection, the range being a power of two), so hot pages
// do not sit next to each other in the table. A page is written only by its
// owner (rank mod callers; a write drawn for another caller's page moves to
// the neighbouring rank, so popularity is all but unchanged), which is what
// lets the audit know every page's last version without synchronising the
// writers.
func genInputs(seed int64, callers, pages, frames int, writeShare float64) *inputs {
	if pages&(pages-1) != 0 {
		panic("benchmark: page range must be a power of two")
	}
	mult := uint64(seed)*0x9e3779b97f4a7c15 | 1
	scatter := func(rank uint64) uint32 { return uint32((rank * mult) & uint64(pages-1)) }
	in := &inputs{
		ids:     pageIDs(pages),
		streams: make([]stream, callers),
		owner:   make([]uint8, pages),
		hot:     make([]uint32, frames),
	}
	for rank := 0; rank < pages; rank++ {
		in.owner[scatter(uint64(rank))] = uint8(rank % callers)
	}
	for rank := range in.hot {
		in.hot[rank] = scatter(uint64(rank))
	}
	for w := range in.streams {
		r := rand.New(rand.NewSource(seed*1000003 + int64(w)))
		z := rand.NewZipf(r, zipfS, 1, uint64(pages-1))
		st := make(stream, streamOps)
		for i := range st {
			rank := z.Uint64()
			if r.Float64() < writeShare {
				rank = rank - rank%uint64(callers) + uint64(w)
				st[i] = scatter(rank) | writeBit
			} else {
				st[i] = scatter(rank)
			}
		}
		in.streams[w] = st
	}
	return in
}

// pageIDs maps page indexes to the IDs handed to the program.
func pageIDs(pages int) []bpwrapper.PageID {
	ids := make([]bpwrapper.PageID, pages)
	for i := range ids {
		ids[i] = bpwrapper.NewPageID(1, uint64(i))
	}
	return ids
}

// Page format, harness-owned: the id word, a version word, and a trailer
// id^version in the last eight bytes. The id word is checked on every
// access; the trailer ties the two ends of the 8 KiB together so a torn or
// misdirected copy shows in the audit.
const trailerOff = bpwrapper.PageSize - 8

func stampPage(b []byte, id bpwrapper.PageID, ver uint64) {
	binary.LittleEndian.PutUint64(b[0:], uint64(id))
	binary.LittleEndian.PutUint64(b[8:], ver)
	binary.LittleEndian.PutUint64(b[trailerOff:], uint64(id)^ver)
}

func pageIDWord(b []byte) bpwrapper.PageID {
	return bpwrapper.PageID(binary.LittleEndian.Uint64(b[0:]))
}

func pageVersion(b []byte) uint64 { return binary.LittleEndian.Uint64(b[8:]) }

// fillDevice writes version 0 of every page, so a miss is an 8 KiB copy and
// never the device's pattern synthesis.
func fillDevice(dev bpwrapper.Device, ids []bpwrapper.PageID) error {
	var p bpwrapper.Page
	for _, id := range ids {
		p.ID = id
		stampPage(p.Data[:], id, 0)
		if err := dev.WritePage(&p); err != nil {
			return fmt.Errorf("fill device: page %v: %w", id, err)
		}
	}
	return nil
}

// auditDevice reads every page back from the device and checks id, trailer
// and that the version is the last one the harness wrote: the last
// acknowledged one, or a later one whose write failed in flight. It returns
// the first discrepancy.
func auditDevice(dev bpwrapper.Device, ids []bpwrapper.PageID, want *versions) error {
	var p bpwrapper.Page
	for i, id := range ids {
		if err := dev.ReadPage(id, &p); err != nil {
			return fmt.Errorf("audit: read page %v: %w", id, err)
		}
		b := p.Data[:]
		ver := pageVersion(b)
		switch {
		case pageIDWord(b) != id:
			return fmt.Errorf("audit: page %v holds id word %v", id, pageIDWord(b))
		case binary.LittleEndian.Uint64(b[trailerOff:]) != uint64(id)^ver:
			return fmt.Errorf("audit: page %v trailer does not match version %d", id, ver)
		case ver < want.written[i] || ver > want.issued[i]:
			return fmt.Errorf("audit: page %v on device at version %d, last written %d", id, ver, want.written[i])
		}
	}
	return nil
}
