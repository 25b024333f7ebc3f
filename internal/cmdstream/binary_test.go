package cmdstream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
)

// fullStream builds a stream exercising every record kind, every exec form,
// every element type, payload edge cases (empty, narrow-packed, and a
// raw64 fallback where a value does not fit its object's element width),
// and floats with no short decimal form.
func fullStream() *cmdstream.Stream {
	types := []string{"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"}
	s := &cmdstream.Stream{
		Header: cmdstream.Header{
			Version:    cmdstream.Version,
			Target:     "fulcrum",
			TargetID:   1,
			Module:     dram.DDR4(2),
			Functional: true,
		},
	}
	seq := int64(0)
	add := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		s.Records = append(s.Records, rec)
	}
	rng := rand.New(rand.NewSource(7))
	for i, typ := range types {
		obj := int64(i + 1)
		data := make([]int64, 64)
		for j := range data {
			// Values that fit the element width, including negatives for
			// the signed types (sign-extension must round-trip).
			data[j] = rng.Int63() % 100
			if typ[0] == 'i' && j%2 == 1 {
				data[j] = -data[j]
			}
		}
		add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: obj, Type: typ, N: 64})
		add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: obj, Data: data})
	}
	// Payload-less h2d (model-only recording) and a payload that does not
	// fit its object's width (forces the raw64 fallback).
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 5, Data: []int64{123456789, -5}})
	// A payload for an object with no preceding alloc (untracked type).
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 99, Data: []int64{1, 2, 3}})

	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
		Op: "add", Type: "int32", N: 64, A: 3, B: 3, Dst: 3})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
		Op: "mul", Type: "int16", N: 64, A: 2, Dst: 2, Scalar: -7})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormUnary,
		Op: "not", Type: "uint8", N: 64, A: 5, Dst: 5})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormShift,
		Op: "shift.l", Type: "uint32", N: 64, A: 7, Dst: 7, Amount: 3})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormSelect,
		Op: "select", Type: "int64", N: 64, Cond: 4, A: 4, B: 4, Dst: 4})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBroadcast,
		Op: "broadcast", Type: "int8", N: 64, Dst: 1, Scalar: -128})
	add(cmdstream.Record{Kind: cmdstream.KindRepeatBegin, Repeat: 9})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
		Op: "redsum", Type: "int32", N: 64, A: 3, Result: -123456789})
	add(cmdstream.Record{Kind: cmdstream.KindRepeatEnd})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSumSeg,
		Op: "redsum.seg", Type: "int32", N: 64, A: 3, SegLen: 16,
		Results: []int64{1, -2, 3, -4}})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
		Form1: cmdstream.FormBinary, Form2: cmdstream.FormScalar,
		Op: "add", Op2: "mul", Type: "int32", N: 64, A: 3, B: 3, Dst: 3,
		Scalar: 0, Scalar2: 5})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
		Form1: cmdstream.FormScalar, Form2: cmdstream.FormBinary,
		Op: "mul", Op2: "add", Type: "int32", N: 64, A: 3, B: 3, Dst: 3,
		Scalar: -3, Scalar2: 0})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2D, Src: 3, Dst: 4})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2DRange, Src: 3, SrcOff: 8, Dst: 4, DstOff: 16, N: 32})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2H, Obj: 3})
	add(cmdstream.Record{Kind: cmdstream.KindHost, TimeNS: 1.0 / 3.0, EnergyPJ: math.Pi * 1e6})
	for i := len(types); i >= 1; i-- {
		add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: int64(i)})
	}
	return s
}

// TestBinaryRoundTrip proves the binary encoding lossless: encode → decode
// must reproduce every record exactly (the same DeepEqual contract the JSON
// round-trip test enforces), and re-encoding the decoded stream must be
// byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	for name, s := range map[string]*cmdstream.Stream{"sample": sampleStream(), "full": fullStream()} {
		var buf bytes.Buffer
		if err := s.EncodeBinary(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := cmdstream.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: binary round trip differs:\n got %+v\nwant %+v", name, got, s)
		}
		var buf2 bytes.Buffer
		if err := got.EncodeBinary(&buf2); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: re-encoding is not byte-identical (%d vs %d bytes)", name, buf.Len(), buf2.Len())
		}
	}
}

// TestBinaryMatchesJSON proves cross-format identity: the binary decode of
// a stream equals the JSON decode of the same stream, record for record.
func TestBinaryMatchesJSON(t *testing.T) {
	s := fullStream()
	var jbuf, bbuf bytes.Buffer
	if err := s.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := cmdstream.Decode(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := cmdstream.Decode(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Errorf("binary and JSON decodes differ:\n json %+v\n bin  %+v", fromJSON, fromBin)
	}
}

// TestBinarySizeRatio pins the headline size claim: on a payload-bearing
// recorded stream of 8-bit elements (packed 1 byte/element against JSON's
// decimal int64s) interleaved with exec records (one-byte enums against
// JSON's field names and mnemonics), the binary encoding is at least 4x
// smaller.
func TestBinarySizeRatio(t *testing.T) {
	s := &cmdstream.Stream{Header: fullStream().Header}
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63() & 0xFF
	}
	seq := int64(0)
	add := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		s.Records = append(s.Records, rec)
	}
	add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: n})
	add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 2, Type: "uint8", N: n})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 2, Data: data})
	// An iterative 8-bit kernel: the exec-record mix of a real recorded
	// benchmark, where the binary form's dense enums pay off hardest.
	for i := 0; i < 64; i++ {
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "uint8", N: n, A: 1, B: 2, Dst: 2})
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormShift,
			Op: "shift.r", Type: "uint8", N: n, A: 2, Dst: 2, Amount: 1})
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "and", Type: "uint8", N: n, A: 2, Dst: 2, Scalar: 0x7F})
	}
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
		Op: "redsum", Type: "uint8", N: n, A: 2, Result: 12345})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2H, Obj: 2})
	add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 1})
	add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 2})

	var jbuf, bbuf bytes.Buffer
	if err := s.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	ratio := float64(jbuf.Len()) / float64(bbuf.Len())
	t.Logf("JSON %d B, binary %d B, ratio %.2fx (%d records)", jbuf.Len(), bbuf.Len(), ratio, len(s.Records))
	if ratio < 4.0 {
		t.Errorf("binary encoding only %.2fx smaller than JSON, want >= 4x", ratio)
	}
	got, err := cmdstream.Decode(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("ratio stream does not round-trip")
	}
}

// TestBinaryTruncation cuts a binary stream at hostile offsets — inside the
// magic/header, inside a record, and inside a payload frame — and demands
// the sentinel ErrTruncated every time.
func TestBinaryTruncation(t *testing.T) {
	s := fullStream()
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Locate the payload region of the first h2d record: it follows the
	// first alloc record, so cutting at header-end + a small offset lands
	// mid-record, and a cut far before the end lands mid-payload.
	cases := map[string]int{
		"mid-magic":   2,
		"mid-header":  8,
		"mid-record":  headerEnd(t, full) + 3,
		"mid-payload": headerEnd(t, full) + 20,
		"mid-stream":  len(full) / 2,
		"no-marker":   len(full) - 1,
	}
	for name, cut := range cases {
		_, err := cmdstream.Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("%s (cut at %d): truncated stream decoded without error", name, cut)
			continue
		}
		if !errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("%s (cut at %d): error %v does not wrap ErrTruncated", name, cut, err)
		}
	}
}

// oversizedFrameStream returns a valid binary stream that uploads a
// 200000-element uint8 payload as one frame — larger than the canonical
// frames an encoder emits, but within the decoder's frame limit — followed
// by a reduction over it. It also returns the stream as decoded.
func oversizedFrameStream(tb testing.TB) ([]byte, *cmdstream.Stream) {
	tb.Helper()
	const n = 200000
	data := make([]int64, n)
	var sum int64
	for i := range data {
		data[i] = int64(i*7+3) & 0xFF
		sum += data[i]
	}
	alloc := cmdstream.Record{Kind: cmdstream.KindAlloc, Seq: 1, Obj: 1, Type: "uint8", N: n}
	s := &cmdstream.Stream{Header: fullStream().Header, Records: []cmdstream.Record{
		alloc,
		{Kind: cmdstream.KindCopyH2D, Seq: 2, Obj: 1, Data: data},
		{Kind: cmdstream.KindExec, Seq: 3, Form: cmdstream.FormRedSum, Op: "redsum", Type: "uint8", N: n, A: 1, Result: sum},
	}}
	encode := func(s *cmdstream.Stream) []byte {
		var buf bytes.Buffer
		if err := s.EncodeBinary(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	canonical := encode(s)
	// The canonical payload sits between the alloc-only prefix (less its
	// end marker) plus the h2d head — kind 3, seq 2, obj 1, payload flag,
	// uint8 code 4 — and the reduction record; re-frame it as one frame.
	prefix := encode(&cmdstream.Stream{Header: s.Header, Records: []cmdstream.Record{alloc}})
	prefix = append(prefix[:len(prefix)-1:len(prefix)-1], 3, 2, 1, 1, 4)
	if !bytes.HasPrefix(canonical, prefix) {
		tb.Fatal("canonical encoding does not open with the expected h2d head")
	}
	var counts []byte // the canonical frames' count varints
	for off := 0; off < n; off += 1 << 17 {
		counts = binary.AppendUvarint(counts, uint64(min(n-off, 1<<17)))
	}
	suffix := canonical[len(prefix)+len(counts)+n+1:] // past the frames and the zero-count frame
	b := binary.AppendUvarint(prefix, n)
	for _, v := range data {
		b = append(b, byte(v))
	}
	b = append(b, 0)
	return append(b, suffix...), s
}

// TestOversizedPayloadFrame: a frame above the canonical frame size but
// within the decoder's limit decodes to the same records as the canonical
// encoding, and replays onto a device with the payload intact.
func TestOversizedPayloadFrame(t *testing.T) {
	in, want := oversizedFrameStream(t)
	got, err := cmdstream.Decode(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("oversized frame decoded to different records")
	}
	src, err := cmdstream.OpenSource(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.NewFromHeader(want.Header, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The replay re-executes the reduction and fails on a mismatch.
	if err := cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	out, err := dev.CopyDeviceToHost(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want.Records[1].Data) {
		t.Error("replayed device data differs from the payload")
	}
}

// headerEnd returns the offset just past the encoded header blob: magic,
// version byte, uvarint length, and the length itself.
func headerEnd(t *testing.T, b []byte) int {
	t.Helper()
	off := len("PIMB") + 1
	hlen, n := uvarintAt(b, off)
	if n <= 0 {
		t.Fatal("bad header length varint")
	}
	return off + n + int(hlen)
}

func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		if off+i >= len(b) || i > 9 {
			return 0, -1
		}
		c := b[off+i]
		v |= uint64(c&0x7F) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
}

// TestJSONTruncation cuts the JSON encoding mid-header and mid-record; the
// decode error must wrap ErrTruncated, not surface as a bare unmarshal
// failure.
func TestJSONTruncation(t *testing.T) {
	s := sampleStream()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 40, len(full) / 2, len(full) - 3} {
		_, err := cmdstream.Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("cut at %d: truncated stream decoded without error", cut)
			continue
		}
		if !errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("cut at %d: error %v does not wrap ErrTruncated", cut, err)
		}
	}
}

// TestDecodeRejectsGarbage: input that is neither JSON nor binary fails
// with ErrFormat; an empty input is truncation.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"PIMX1234", "hello world", "\x00\x01\x02"} {
		_, err := cmdstream.Decode(bytes.NewReader([]byte(bad)))
		if !errors.Is(err, cmdstream.ErrFormat) {
			t.Errorf("%q: error %v does not wrap ErrFormat", bad, err)
		}
	}
	if _, err := cmdstream.Decode(bytes.NewReader(nil)); !errors.Is(err, cmdstream.ErrTruncated) {
		t.Errorf("empty input: error %v does not wrap ErrTruncated", err)
	}
	// A bad binary version byte is a distinct, explicit error.
	if _, err := cmdstream.Decode(bytes.NewReader([]byte("PIMB\x02rest"))); err == nil ||
		errors.Is(err, cmdstream.ErrFormat) {
		t.Errorf("bad version: want explicit version error, got %v", err)
	}
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to the binary decoder. Any
// input that decodes must round-trip: re-encoding reaches a fixpoint within
// one iteration (encode(decode(x)) is canonical), the canonical bytes
// decode back to identical records, and the JSON transcoding of those
// records decodes identically too.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, s := range []*cmdstream.Stream{sampleStream(), fullStream()} {
		var buf bytes.Buffer
		if err := s.EncodeBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("PIMB\x01"))
	oversized, _ := oversizedFrameStream(f)
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, in []byte) {
		src, err := cmdstream.OpenSource(bytes.NewReader(in))
		if err != nil {
			return
		}
		s, err := cmdstream.Collect(src)
		if err != nil {
			return
		}
		// e1 is the canonical encoding of the decoded records (hostile
		// inputs may use non-canonical payload frame boundaries, so the
		// input bytes themselves need not be canonical).
		var e1 bytes.Buffer
		if err := s.EncodeBinary(&e1); err != nil {
			t.Fatalf("decoded stream failed to encode: %v", err)
		}
		s2, err := cmdstream.Decode(bytes.NewReader(e1.Bytes()))
		if err != nil {
			// Decode runs Stream.Validate; a structurally invalid stream
			// (unbalanced scopes) re-decodes with that error only.
			if s.Validate() != nil {
				return
			}
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("binary round trip diverged:\n  %+v\n  %+v", s, s2)
		}
		var e2 bytes.Buffer
		if err := s2.EncodeBinary(&e2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
		// Cross-format: JSON transcoding preserves every record.
		var j bytes.Buffer
		if err := s.Encode(&j); err != nil {
			t.Fatal(err)
		}
		s3, err := cmdstream.Decode(&j)
		if err != nil {
			if s.Validate() != nil {
				return
			}
			t.Fatalf("JSON transcoding failed to decode: %v", err)
		}
		if !streamsEquivalent(s, s3) {
			t.Fatalf("JSON transcoding diverged:\n  %+v\n  %+v", s, s3)
		}
	})
}

// streamsEquivalent compares streams modulo JSON's nil/empty-slice
// collapse: a zero-length Data/Results slice encodes as an omitted field
// and decodes as nil.
func streamsEquivalent(a, b *cmdstream.Stream) bool {
	if len(a.Records) != len(b.Records) || !reflect.DeepEqual(a.Header, b.Header) {
		return false
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if len(ra.Data) == 0 && len(rb.Data) == 0 {
			ra.Data, rb.Data = nil, nil
		}
		if len(ra.Results) == 0 && len(rb.Results) == 0 {
			ra.Results, rb.Results = nil, nil
		}
		if !reflect.DeepEqual(ra, rb) {
			return false
		}
	}
	return true
}

// benchStream builds the benchmark workload: a payload-heavy functional
// recording (1M int32 elements uploaded, exec records interleaved).
func benchStream() *cmdstream.Stream {
	s := &cmdstream.Stream{Header: fullStream().Header}
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(int32(rng.Int63()))
	}
	s.Records = append(s.Records,
		cmdstream.Record{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: n},
		cmdstream.Record{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data},
		cmdstream.Record{Seq: 3, Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "int32", N: n, A: 1, B: 1, Dst: 1},
		cmdstream.Record{Seq: 4, Kind: cmdstream.KindCopyD2H, Obj: 1},
		cmdstream.Record{Seq: 5, Kind: cmdstream.KindFree, Obj: 1},
	)
	return s
}

func benchEncode(b *testing.B, f cmdstream.Format) {
	s := benchStream()
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.EncodeFormat(&buf, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(len(s.Records)), "bytes/record")
}

func benchDecode(b *testing.B, f cmdstream.Format) {
	s := benchStream()
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for {
			rec, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := cmdstream.Materialize(src, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBinaryStreamEncode(b *testing.B) { benchEncode(b, cmdstream.FormatBinary) }
func BenchmarkBinaryStreamDecode(b *testing.B) { benchDecode(b, cmdstream.FormatBinary) }
func BenchmarkJSONStreamEncode(b *testing.B)   { benchEncode(b, cmdstream.FormatJSON) }
func BenchmarkJSONStreamDecode(b *testing.B)   { benchDecode(b, cmdstream.FormatJSON) }
