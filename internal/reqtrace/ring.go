package reqtrace

import "bpwrapper/internal/metrics"

// spanWords is a span's width in the ring: trace, meta, start, dur, arg1,
// arg2 — 64-byte slots with the two stamps.
const spanWords = 6

// ring is a lock-free span ring: the span encoding over a metrics.Ring,
// which owns the slot protocol (DESIGN.md §10). Writers never wait;
// readers never block writers and never see a span mixing two writes.
type ring struct{ *metrics.Ring }

func newRing(size int) ring { return ring{metrics.NewRing(size, spanWords)} }

// packMeta folds the three small fields into one word:
// phase | shard<<8 | flags<<40.
func packMeta(ph Phase, shard int32, flags uint8) uint64 {
	return uint64(ph) | uint64(uint32(shard))<<8 | uint64(flags)<<40
}

func unpackMeta(m uint64) (Phase, int32, uint8) {
	return Phase(m & 0xff), int32(uint32(m >> 8)), uint8(m >> 40)
}

func (r ring) put(sp Span) {
	w := [spanWords]uint64{
		sp.Trace, packMeta(sp.Phase, sp.Shard, sp.Flags),
		uint64(sp.Start), uint64(sp.Dur), sp.Arg1, sp.Arg2,
	}
	r.Put(w[:])
}

// snapshot appends every intact span to out.
func (r ring) snapshot(out []Span) []Span {
	r.Snapshot(func(_ uint64, w []uint64) {
		sp := Span{Trace: w[0], Start: int64(w[2]), Dur: int64(w[3]), Arg1: w[4], Arg2: w[5]}
		sp.Phase, sp.Shard, sp.Flags = unpackMeta(w[1])
		out = append(out, sp)
	})
	return out
}
