package cmdstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"pimeval/internal/chaos"
	"pimeval/internal/dram"
)

// payloadCodes lists every payload element-type code a decoder accepts.
var payloadCodes = []byte{
	binInt8, binInt16, binInt32, binInt64,
	binUInt8, binUInt16, binUInt32, binUInt64, binTypeRaw,
}

// edgePatterns returns raw element bit patterns at a width's edges: zero,
// one, all ones (-1 signed), the top bit alone (signed minimum), the top
// bit clear and the rest set (signed maximum), top bit plus one, and
// alternating bits. Bits above the width are clear.
func edgePatterns(width int) []uint64 {
	bits := uint(width) * 8
	mask := ^uint64(0) >> (64 - bits)
	top := uint64(1) << (bits - 1)
	return []uint64{0, 1, mask, top, top - 1, top + 1, 0xA5A5A5A5A5A5A5A5 & mask, 0x5A5A5A5A5A5A5A5A & mask}
}

// refUnpack is the reference decoding of one packed element.
func refUnpack(raw uint64, code byte) int64 {
	if code == binTypeRaw {
		return int64(raw)
	}
	return unpackElem(raw, code)
}

// payloadStream hand-encodes a binary stream holding one h2d record whose
// payload is packed under code, one frame per entry of frames, and returns
// the bytes with the reference decoding of every element in order.
func payloadStream(t *testing.T, code byte, frames [][]uint64) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	bw := newBinaryWriter(&buf)
	h := Header{Version: Version, Target: "fulcrum", TargetID: 1, Module: dram.DDR4(1), Functional: true}
	if err := bw.Begin(h); err != nil {
		t.Fatal(err)
	}
	if err := bw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	width := packedWidth(code)
	b := append(buf.Bytes(), binKindCode[KindCopyH2D], 1, 1, 1, code) // kind, seq, obj, payload flag, type
	var want []int64
	for _, f := range frames {
		b = binary.AppendUvarint(b, uint64(len(f)))
		for _, raw := range f {
			for i := 0; i < width; i++ {
				b = append(b, byte(raw>>(8*i)))
			}
			want = append(want, refUnpack(raw, code))
		}
	}
	return append(b, 0, 0), want // zero-count frame, end-of-stream marker
}

// drainPayload opens r, reads the h2d record, and drains its payload
// through NextPayloadChunk, returning the concatenated elements and the
// first error other than the payload's io.EOF.
func drainPayload(r io.Reader) ([]int64, error) {
	src, err := OpenSource(r)
	if err != nil {
		return nil, err
	}
	cs := src.(ChunkedSource)
	if _, err := src.Next(); err != nil {
		return nil, err
	}
	var got []int64
	for {
		chunk, err := cs.NextPayloadChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return got, err
		}
		got = append(got, chunk...)
	}
	if _, err := src.Next(); err != io.EOF {
		return got, err
	}
	return got, nil
}

// mixedFrames builds an edge-value frame, a frame several times the
// reader's 64 KiB buffer at every width (so one frame takes several
// Peeks), and a short frame after it (the grown chunk buffer is reused).
func mixedFrames(width int) [][]uint64 {
	edges := edgePatterns(width)
	big := make([]uint64, 3*(64<<10)/width+17)
	for i := range big {
		big[i] = edges[i%len(edges)] ^ uint64(i)&(^uint64(0)>>(64-8*uint(width)))
	}
	return [][]uint64{edges, big, edges[:3]}
}

// TestUnpackEveryTypeCode decodes every payload type code's edge values
// through NextPayloadChunk, from a plain reader and from one that returns
// short reads, against the per-element reference decoding.
func TestUnpackEveryTypeCode(t *testing.T) {
	for _, code := range payloadCodes {
		in, want := payloadStream(t, code, mixedFrames(packedWidth(code)))
		readers := map[string]io.Reader{
			"plain":       bytes.NewReader(in),
			"short-reads": &chaos.Reader{R: bytes.NewReader(in), Rand: chaos.NewRand(uint64(code) + 1), FailAfter: -1},
		}
		for name, r := range readers {
			got, err := drainPayload(r)
			if err != nil {
				t.Fatalf("code %#x, %s: %v", code, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("code %#x, %s: decoded payload differs from reference", code, name)
			}
		}
	}
}

// TestPayloadFrameCut cuts a stream inside a multi-piece payload frame:
// within the first reader-buffer piece, past it, and one byte short of
// the frame's end. Each must fail with ErrTruncated, and a reader fault
// at the same offsets must surface as that fault.
func TestPayloadFrameCut(t *testing.T) {
	for _, code := range []byte{binInt8, binUInt16, binInt32, binTypeRaw} {
		w := packedWidth(code)
		frames := mixedFrames(w)
		in, _ := payloadStream(t, code, frames)
		// The large frame's data ends before the short frame (count byte
		// and 3 elements), the zero-count frame and the end marker.
		frameEnd := len(in) - 2 - (1 + 3*w)
		frameStart := frameEnd - len(frames[1])*w
		for _, cut := range []int{frameStart + 10, frameStart + 100<<10, frameEnd - 1} {
			if _, err := drainPayload(bytes.NewReader(in[:cut])); !errors.Is(err, ErrTruncated) {
				t.Errorf("code %#x, cut at %d: error %v does not wrap ErrTruncated", code, cut, err)
			}
			fr := &chaos.Reader{R: bytes.NewReader(in), Rand: chaos.NewRand(3), FailAfter: int64(cut)}
			if _, err := drainPayload(fr); !errors.Is(err, chaos.ErrInjected) {
				t.Errorf("code %#x, fault at %d: error %v does not wrap the injected fault", code, cut, err)
			}
		}
		if _, err := Decode(bytes.NewReader(in[:frameEnd-1])); !errors.Is(err, ErrTruncated) {
			t.Errorf("code %#x: Decode of a cut frame: error %v does not wrap ErrTruncated", code, err)
		}
	}
}
