package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// TestFrameGoldenEncoding pins the wire format byte for byte: if any of
// these fail, the protocol changed incompatibly and every deployed client
// would desync. New fields mean a new opcode, not a reshaped frame.
func TestFrameGoldenEncoding(t *testing.T) {
	cases := []struct {
		name    string
		code    byte
		reqID   uint64
		payload [][]byte
		want    []byte
	}{
		{
			name:  "flush-empty-payload",
			code:  OpFlush,
			reqID: 0x0102030405060708,
			want: []byte{
				0x00, 0x00, 0x00, 0x09, // length = 9: header only
				0x04,                                           // OpFlush
				0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // reqID
			},
		},
		{
			name:    "get-pageid",
			code:    OpGet,
			reqID:   1,
			payload: [][]byte{{0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33}},
			want: []byte{
				0x00, 0x00, 0x00, 0x11, // length = 9 + 8
				0x01,                                           // OpGet
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // reqID
				0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33, // PageID
			},
		},
		{
			name:    "response-overloaded",
			code:    StatusOverloaded,
			reqID:   7,
			payload: [][]byte{[]byte("shed")},
			want: []byte{
				0x00, 0x00, 0x00, 0x0d, // length = 9 + 4
				0x01,                                           // StatusOverloaded
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // reqID
				's', 'h', 'e', 'd',
			},
		},
		{
			name:    "split-payload-concatenates",
			code:    OpPut,
			reqID:   2,
			payload: [][]byte{{0xaa}, {0xbb, 0xcc}},
			want: []byte{
				0x00, 0x00, 0x00, 0x0c,
				0x02,
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
				0xaa, 0xbb, 0xcc,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendFrame(nil, tc.code, tc.reqID, tc.payload...)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("encoded frame\n got %#v\nwant %#v", got, tc.want)
			}
			// And the decoder inverts it.
			var flat []byte
			for _, p := range tc.payload {
				flat = append(flat, p...)
			}
			for name, r := range map[string]io.Reader{
				"whole":   bytes.NewReader(got),
				"onebyte": iotest.OneByteReader(bytes.NewReader(got)),
				"half":    iotest.HalfReader(bytes.NewReader(got)),
			} {
				code, id, payload, err := newFrameReader(r, false).next()
				if err != nil {
					t.Fatalf("decode (%s): %v", name, err)
				}
				if code != tc.code || id != tc.reqID || !bytes.Equal(payload, flat) {
					t.Fatalf("decode (%s): code=%d id=%d payload=%#v, want %d/%d/%#v",
						name, code, id, payload, tc.code, tc.reqID, flat)
				}
			}
		})
	}
}

// TestFrameDecodeMalformed pins the decoder's failure taxonomy: length
// words below the header size and above the payload bound are typed
// errors, truncation mid-frame is ErrUnexpectedEOF, and a clean EOF is
// only legal on a frame boundary.
func TestFrameDecodeMalformed(t *testing.T) {
	frame := func(raw ...byte) *frameReader {
		return newFrameReader(bytes.NewReader(raw), false)
	}
	t.Run("length-below-header", func(t *testing.T) {
		_, _, _, err := frame(0x00, 0x00, 0x00, 0x08).next()
		if !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("err = %v, want ErrMalformedFrame", err)
		}
	})
	t.Run("length-zero", func(t *testing.T) {
		_, _, _, err := frame(0x00, 0x00, 0x00, 0x00).next()
		if !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("err = %v, want ErrMalformedFrame", err)
		}
	})
	t.Run("length-over-bound", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], frameHeaderLen+MaxPayload+1)
		_, _, _, err := frame(hdr[:]...).next()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("length-maximum-uint32", func(t *testing.T) {
		_, _, _, err := frame(0xff, 0xff, 0xff, 0xff).next()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, _, _, err := frame(0x00, 0x00, 0x00, 0x09, 0x01).next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		raw := appendFrame(nil, OpGet, 1, make([]byte, 8))
		_, _, _, err := frame(raw[:len(raw)-3]...).next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("clean-eof-on-boundary", func(t *testing.T) {
		_, _, _, err := frame().next()
		if !errors.Is(err, io.EOF) {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	})
	t.Run("truncated-length-word", func(t *testing.T) {
		_, _, _, err := frame(0x00, 0x00).next()
		// io.ReadFull on the length word itself: an UnexpectedEOF from
		// the stdlib, not our wrapper — both are acceptable cut signals.
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
}

// sameBuffer reports whether fr still decodes out of the array buf0 names,
// at the size it had.
func sameBuffer(fr *frameReader, buf0 []byte) bool {
	return &fr.buf[0] == &buf0[0] && cap(fr.buf) == cap(buf0)
}

// TestFrameDecoderReusesBuffer verifies the fixed-memory contract of a
// plain reader (every server connection): whatever the peer
// sends — a burst many times the buffer's size, or a hostile length word —
// the receive buffer is the array it started with, and every payload is a
// slice of it, not a copy.
func TestFrameDecoderReusesBuffer(t *testing.T) {
	var raw []byte
	big := make([]byte, page.Size)
	for i := 0; i < 64; i++ {
		raw = appendFrame(raw, OpPut, uint64(i), make([]byte, 8), big)
	}
	fr := newFrameReader(bytes.NewReader(raw), false)
	buf0 := fr.buf
	for i := 0; i < 64; i++ {
		_, id, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i) || len(payload) != 8+page.Size {
			t.Fatalf("frame %d: id %d, payload %d bytes", i, id, len(payload))
		}
		if !sameBuffer(fr, buf0) {
			t.Fatalf("frame %d: receive buffer replaced (cap %d → %d)", i, cap(buf0), cap(fr.buf))
		}
		if off := fr.rd - len(payload); &payload[0] != &buf0[off] {
			t.Fatalf("frame %d: payload is not a slice of the receive buffer", i)
		}
	}
	for _, length := range []uint32{0, frameHeaderLen - 1, frameHeaderLen + MaxPayload + 1, 1 << 31, 0xffffffff} {
		var raw [64]byte
		be.PutUint32(raw[:], length)
		fr := newFrameReader(bytes.NewReader(raw[:]), false)
		buf0 := fr.buf
		if _, _, _, err := fr.next(); !isFrameError(err) {
			t.Fatalf("length %#x: err = %v, want a frame error", length, err)
		}
		if !sameBuffer(fr, buf0) {
			t.Fatalf("length %#x: receive buffer replaced (cap %d → %d)", length, cap(buf0), cap(fr.buf))
		}
	}
}

// TestFrameKeepModeBounded verifies a keep reader's promises: payloads
// handed out earlier in a burst survive the buffer growing under them; the
// buffer never exceeds twice what the burst (plus one maximal frame of
// slack) needed; and reset reclaims it, so once it has grown to hold a
// whole burst the same burst costs no further allocation.
func TestFrameKeepModeBounded(t *testing.T) {
	for _, frames := range []int{1, 3, 4, 16, 64, 100} {
		var raw []byte
		for i := 0; i < frames; i++ {
			raw = appendFrame(raw, StatusOK, uint64(i), bytes.Repeat([]byte{byte(i + 1)}, page.Size))
		}
		bound := 2 * (len(raw) + 4 + frameHeaderLen + MaxPayload)
		if bound < recvBufSize {
			bound = recvBufSize
		}
		fr := newFrameReader(nil, true)
		for pass := 0; pass < 4; pass++ {
			fr.r = iotest.HalfReader(bytes.NewReader(raw))
			fr.reset()
			buf0 := fr.buf
			got := make([][]byte, frames)
			for i := range got {
				var err error
				if _, _, got[i], err = fr.next(); err != nil {
					t.Fatalf("%d frames, pass %d: frame %d: %v", frames, pass, i, err)
				}
			}
			for i, p := range got {
				if !bytes.Equal(p, bytes.Repeat([]byte{byte(i + 1)}, page.Size)) {
					t.Fatalf("%d frames, pass %d: payload %d was overwritten later in the burst", frames, pass, i)
				}
			}
			if cap(fr.buf) > bound {
				t.Fatalf("%d frames (%d bytes), pass %d: buffer grew to %d, bound %d", frames, len(raw), pass, cap(fr.buf), bound)
			}
			if pass == 3 && !sameBuffer(fr, buf0) {
				t.Fatalf("%d frames: buffer still being replaced on the fourth identical burst", frames)
			}
		}
	}
}

type decoded struct {
	code    byte
	id      uint64
	payload []byte
}

// decodeAll drains a reader, copying each payload, and returns the frames
// and the error that ended the stream.
func decodeAll(fr *frameReader) ([]decoded, error) {
	var out []decoded
	for {
		code, id, payload, err := fr.next()
		if err != nil {
			return out, err
		}
		out = append(out, decoded{code, id, append([]byte(nil), payload...)})
	}
}

// randomChunkReader returns between 1 and max bytes per Read.
type randomChunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *randomChunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// TestFrameDecodeChunkingEquivalence verifies in-place decoding is blind
// to how the stream is cut up: the golden vectors and seeded sequences of
// frames of every size — long enough to straddle the buffer's end many
// times — decode to the same (code, id, payload) sequence one byte at a
// time, half a read at a time and in random chunks as in whole reads, in
// both modes; a cut inside a frame is io.ErrUnexpectedEOF and a cut on a
// boundary io.EOF.
func TestFrameDecodeChunkingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, 8, 8 + page.Size, page.Size, MaxPayload - 1, MaxPayload}
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	for seq := 0; seq < sequences; seq++ {
		var want []decoded
		var raw []byte
		for n := 1 + rng.Intn(12); n > 0; n-- {
			size := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				size = rng.Intn(MaxPayload + 1)
			}
			d := decoded{byte(rng.Intn(256)), rng.Uint64(), make([]byte, size)}
			rng.Read(d.payload)
			want = append(want, d)
			raw = appendFrame(raw, d.code, d.id, d.payload)
		}
		cut := len(raw)
		wantErr := io.EOF
		if seq%4 == 3 { // cut the stream inside its last frame
			last := 4 + frameHeaderLen + len(want[len(want)-1].payload)
			cut -= 1 + rng.Intn(last-1)
			want = want[:len(want)-1]
			wantErr = io.ErrUnexpectedEOF
		}
		readers := map[string]io.Reader{
			"whole":    bytes.NewReader(raw[:cut]),
			"half":     iotest.HalfReader(bytes.NewReader(raw[:cut])),
			"chunks":   &randomChunkReader{bytes.NewReader(raw[:cut]), rng, 3 * page.Size},
			"data+err": iotest.DataErrReader(bytes.NewReader(raw[:cut])),
		}
		if seq%10 == 0 { // a byte at a time is slow: a tenth of the sequences
			readers["onebyte"] = iotest.OneByteReader(bytes.NewReader(raw[:cut]))
		}
		for name, r := range readers {
			fr := newFrameReader(r, seq%2 == 1)
			got, err := decodeAll(fr)
			if err != wantErr {
				t.Fatalf("seq %d %s: stream ended with %v, want %v", seq, name, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("seq %d %s: %d frames, want %d", seq, name, len(got), len(want))
			}
			for i := range want {
				if got[i].code != want[i].code || got[i].id != want[i].id || !bytes.Equal(got[i].payload, want[i].payload) {
					t.Fatalf("seq %d %s: frame %d differs (code %d/%d id %d/%d len %d/%d)", seq, name, i,
						got[i].code, want[i].code, got[i].id, want[i].id, len(got[i].payload), len(want[i].payload))
				}
			}
		}
	}
}

// TestStatusErrorRoundTrip verifies the error taxonomy survives the wire:
// server-side statusForErr and client-side errForStatus compose to an
// error satisfying the same errors.Is checks as the original.
func TestStatusErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		status   byte
		sentinel error
	}{
		{"overloaded", buffer.ErrOverloaded, StatusOverloaded, buffer.ErrOverloaded},
		{"invalid-page", storage.ErrInvalidPage, StatusInvalidPage, storage.ErrInvalidPage},
		{"no-buffers", buffer.ErrNoUnpinnedBuffers, StatusNoBuffers, buffer.ErrNoUnpinnedBuffers},
		{"quarantine-full-collapses-to-no-buffers", buffer.ErrQuarantineFull, StatusNoBuffers, buffer.ErrNoUnpinnedBuffers},
		{"wrapped-overloaded", errors.Join(errors.New("ctx"), buffer.ErrOverloaded), StatusOverloaded, buffer.ErrOverloaded},
		{"io-error", errors.New("disk on fire"), StatusIOError, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := statusForErr(tc.err)
			if st != tc.status {
				t.Fatalf("statusForErr = %s, want %s", statusName(st), statusName(tc.status))
			}
			back := errForStatus(st, []byte(tc.err.Error()))
			if back == nil {
				t.Fatal("errForStatus returned nil for a failure status")
			}
			if tc.sentinel != nil && !errors.Is(back, tc.sentinel) {
				t.Fatalf("round-tripped error %v does not satisfy %v", back, tc.sentinel)
			}
		})
	}
	if statusForErr(nil) != StatusOK {
		t.Fatal("statusForErr(nil) != StatusOK")
	}
	if errForStatus(StatusOK, nil) != nil {
		t.Fatal("errForStatus(StatusOK) != nil")
	}
	if !errors.Is(errForStatus(StatusDraining, nil), ErrDraining) {
		t.Fatal("StatusDraining does not map to ErrDraining")
	}
}

// FuzzFrameDecode feeds arbitrary byte streams — including mutated valid
// frames with duplicate request IDs — through the decoder. The decoder
// must never panic and a plain reader never replace or grow its receive
// buffer, whatever the length words claim; a keep reader decodes the same
// frames and stays within twice the stream plus a maximal frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x09, 0x04, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	// A valid GET, a duplicate-ID GET, then a truncated PUT.
	dup := appendFrame(nil, OpGet, 42, make([]byte, 8))
	dup = appendFrame(dup, OpGet, 42, make([]byte, 8))
	dup = append(dup, appendFrame(nil, OpPut, 43, make([]byte, 100))[:20]...)
	f.Add(dup)
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr := newFrameReader(iotest.HalfReader(bytes.NewReader(raw)), false)
		buf0 := fr.buf
		// Any error ends the stream; it must just not panic. Duplicate
		// IDs are legal at the framing layer (positional matching); the
		// decoder must simply deliver them all.
		frames, err := decodeAll(fr)
		for _, f := range frames {
			if len(f.payload) > MaxPayload {
				t.Fatalf("payload %d bytes exceeds MaxPayload", len(f.payload))
			}
		}
		if !sameBuffer(fr, buf0) {
			t.Fatalf("decoder replaced its receive buffer (cap %d → %d)", cap(buf0), cap(fr.buf))
		}
		kr := newFrameReader(bytes.NewReader(raw), true)
		kept, kerr := decodeAll(kr)
		if len(kept) != len(frames) || (kerr == nil) != (err == nil) {
			t.Fatalf("keep reader decoded %d frames (%v), plain reader %d (%v)", len(kept), kerr, len(frames), err)
		}
		if bound := 2 * (len(raw) + 4 + frameHeaderLen + MaxPayload); cap(kr.buf) > bound && cap(kr.buf) > recvBufSize {
			t.Fatalf("keep reader's buffer %d bytes for a %d-byte stream", cap(kr.buf), len(raw))
		}
	})
}
