package device

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
)

// TestRawPayloadTruncation: values too wide for an int8 or uint16 object
// travel as a raw-coded binary payload. Replayed through the chunked path
// they must land truncated exactly as CopyHostToDevice truncates them, and
// a recording of the replay must keep the values from before truncation.
func TestRawPayloadTruncation(t *testing.T) {
	vals := []int64{0, 1, -1, 127, 128, 255, 256, -128, -129, 32767, 32768, 65535, 65536,
		-32769, 0x123456789, math.MaxInt64, math.MinInt64}
	for _, dt := range []isa.DataType{isa.Int8, isa.UInt16} {
		ref := newDev(t, TargetFulcrum)
		id, err := ref.Alloc(int64(len(vals)), dt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.CopyHostToDevice(id, vals); err != nil {
			t.Fatal(err)
		}
		want, err := ref.CopyDeviceToHost(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if want[i] != dt.Truncate(v) {
				t.Fatalf("%v: CopyHostToDevice stored %d for %d, want %d", dt, want[i], v, dt.Truncate(v))
			}
		}

		h := ref.streamHeader()
		var bin bytes.Buffer
		w := cmdstream.NewWriter(&bin, cmdstream.FormatBinary)
		recs := []cmdstream.Record{
			{Kind: cmdstream.KindAlloc, Seq: 1, Obj: int64(id), Type: dt.String(), N: int64(len(vals))},
			{Kind: cmdstream.KindCopyH2D, Seq: 2, Obj: int64(id), Data: vals},
		}
		if err := w.Begin(h); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if bin.Len() < 8*len(vals) {
			t.Fatalf("%v: payload is not raw-coded (%d stream bytes)", dt, bin.Len())
		}

		got, err := NewFromHeader(h, 1)
		if err != nil {
			t.Fatal(err)
		}
		got.StartRecording()
		src, err := cmdstream.OpenSource(&bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.ReplaySource(src); err != nil {
			t.Fatal(err)
		}
		data, err := got.CopyDeviceToHost(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(data, want) {
			t.Errorf("%v: chunked replay stored %v, CopyHostToDevice stored %v", dt, data, want)
		}
		rec := got.RecordedStream().Records[1]
		if rec.Kind != cmdstream.KindCopyH2D || !reflect.DeepEqual(rec.Data, vals) {
			t.Errorf("%v: re-recorded payload %v, want the values before truncation %v", dt, rec.Data, vals)
		}
	}
}
