// Package page defines the fundamental page and buffer-tag types shared by
// the buffer manager, the replacement policies, and the BP-Wrapper core.
//
// A database file is modelled as a sequence of fixed-size pages. A page is
// identified globally by a PageID, which packs a table (relation) number and
// a block number within that table. The buffer manager additionally stamps
// each cached copy with a BufferTag so that deferred (batched) access records
// can detect that a frame was recycled between the access and its commit, as
// described in Section IV-B of the BP-Wrapper paper.
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Size is the size of a database page in bytes. PostgreSQL uses 8 KB pages;
// we follow suit. The value only matters for the simulated storage device
// and the buffer-size accounting in the Figure 8 experiment.
const Size = 8192

// PageID identifies a disk page globally. The high 20 bits hold the table
// (relation) number, the low 44 bits the block number within the table.
type PageID uint64

// InvalidPageID is the zero PageID; table numbers start at 1 so no valid
// page maps to it.
const InvalidPageID PageID = 0

const (
	blockBits = 44
	blockMask = (1 << blockBits) - 1
	maxTable  = 1<<20 - 1
)

// NewPageID packs a table number and a block number into a PageID.
// Table numbers must be in [1, 2^20-1]; block numbers in [0, 2^44-1].
func NewPageID(table uint32, block uint64) PageID {
	if table == 0 || table > maxTable {
		panic(fmt.Sprintf("page: table number %d out of range [1, %d]", table, maxTable))
	}
	if block > blockMask {
		panic(fmt.Sprintf("page: block number %d out of range", block))
	}
	return PageID(uint64(table)<<blockBits | block)
}

// Table returns the table (relation) number encoded in the PageID.
func (id PageID) Table() uint32 { return uint32(uint64(id) >> blockBits) }

// Block returns the block number within the table.
func (id PageID) Block() uint64 { return uint64(id) & blockMask }

// Valid reports whether the PageID identifies a real page.
func (id PageID) Valid() bool { return id != InvalidPageID }

// String renders the PageID as "table:block" for diagnostics.
func (id PageID) String() string {
	if !id.Valid() {
		return "invalid"
	}
	return fmt.Sprintf("%d:%d", id.Table(), id.Block())
}

// BufferTag identifies the logical page currently held by a buffer frame
// together with a generation number. The generation is bumped every time the
// frame is loaded with a different page, so a stale queued access record
// (whose tag no longer matches the frame's) can be discarded at commit time
// instead of corrupting the replacement algorithm's bookkeeping.
//
// Slot says where to look, not what was seen: it is the index, within the
// pool's frames, of the frame the access was recorded against, so the commit-time
// check reads that frame's header directly — the paper's comparison against
// the tag "in the buffer header" (Section IV-B) — instead of finding the
// frame again through the page table. Callers that have no frames (trace
// replay, the simulator) leave it zero.
type BufferTag struct {
	Page PageID
	Gen  uint64
	Slot uint32
}

// Matches reports whether the tag still refers to the same cached copy:
// same page, same generation. Slot is a locator and takes no part.
func (t BufferTag) Matches(o BufferTag) bool { return t.Page == o.Page && t.Gen == o.Gen }

// Page is an in-memory copy of a disk page.
type Page struct {
	ID   PageID
	Data [Size]byte
}

// castagnoli is the CRC-32C table; hash/crc32 computes it with the SSE4.2
// instruction where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes a CRC-32C over the page contents. The storage device and
// buffer-pool tests use it to verify data integrity across eviction/reload
// cycles.
func (p *Page) Checksum() uint64 {
	return uint64(crc32.Checksum(p.Data[:], castagnoli))
}

// Stamp fills the page with a deterministic pattern derived from the PageID,
// so tests and the simulated device can verify that the right bytes came
// back without storing golden copies: one xorshift64 step per 8-byte word.
func (p *Page) Stamp(id PageID) {
	p.ID = id
	for i, x := 0, stampSeed(id); i < Size; i += 8 {
		x = xorshift(x)
		binary.LittleEndian.PutUint64(p.Data[i:], x)
	}
}

// VerifyStamp reports whether the page holds exactly the pattern Stamp
// writes for the given id.
func (p *Page) VerifyStamp(id PageID) bool {
	for i, x := 0, stampSeed(id); i < Size; i += 8 {
		if x = xorshift(x); binary.LittleEndian.Uint64(p.Data[i:]) != x {
			return false
		}
	}
	return true
}

// stampSeed is the xorshift64 state the id starts Stamp's pattern from.
func stampSeed(id PageID) uint64 { return uint64(id)*2654435761 + 0x9e3779b97f4a7c15 }

// xorshift is one step of xorshift64.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}
