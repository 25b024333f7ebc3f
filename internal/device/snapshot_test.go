package device

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pimeval/internal/chaos"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// snapVariant is one device configuration exercised by the snapshot battery.
type snapVariant struct {
	name       string
	functional bool
	trace      bool
	faults     *fault.Config
}

func snapVariants() []snapVariant {
	ecc := &fault.Config{Seed: 7, TransientBitRate: 1e-7, StuckBits: 2, ECC: true}
	corrupting := &fault.Config{Seed: 11, TransientBitRate: 1e-6, StuckBits: 1}
	return []snapVariant{
		{name: "model", functional: false, trace: true},
		{name: "functional", functional: true, trace: true},
		{name: "functional/notrace", functional: true, trace: false},
		{name: "functional/ecc", functional: true, trace: true, faults: ecc},
		{name: "functional/corrupting", functional: true, trace: true, faults: corrupting},
		{name: "model/ecc", functional: false, trace: true, faults: ecc},
	}
}

// snapValues yields a deterministic value pattern covering sign and width
// edge cases.
func snapValues(n int, k int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = (int64(i)*2654435761 + k) ^ (k << 13)
	}
	return vals
}

// buildSnapDevice constructs a device and drives it through a representative
// op history: allocations of several widths, copies, binary/scalar/unary
// execs, a repeat scope, a free (leaving a hole in the ID sequence), and a
// reallocation after the free.
func buildSnapDevice(t testing.TB, v snapVariant) *Device {
	t.Helper()
	d, err := New(Config{
		Target:     TargetFulcrum,
		Module:     dram.DDR4(1),
		Functional: v.functional,
		Workers:    1,
		Faults:     v.faults,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v.trace {
		d.EnableTrace()
	}
	driveSnapOps(t, d, v.functional)
	return d
}

// driveSnapOps issues the battery's representative op history on d.
func driveSnapOps(t testing.TB, d *Device, functional bool) {
	t.Helper()
	const n = 257
	a, err := d.Alloc(n, isa.Int8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AllocAssociated(a, isa.Int8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Alloc(n, isa.Int8)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := d.Alloc(64, isa.Int64)
	if err != nil {
		t.Fatal(err)
	}
	if functional {
		if err := d.CopyHostToDevice(a, snapValues(n, 3)); err != nil {
			t.Fatal(err)
		}
		if err := d.CopyHostToDevice(b, snapValues(n, 9)); err != nil {
			t.Fatal(err)
		}
		if err := d.CopyHostToDevice(wide, snapValues(64, 17)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ExecBinary(isa.OpAdd, a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := d.ExecScalar(isa.OpMul, c, 3, c); err != nil {
		t.Fatal(err)
	}
	if err := d.WithRepeat(3, func() error {
		return d.ExecBinary(isa.OpXor, a, c, b)
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Broadcast(b, -5); err != nil {
		t.Fatal(err)
	}
	// Free one object (ID hole + freed-set entry), then allocate over it.
	if err := d.Free(c); err != nil {
		t.Fatal(err)
	}
	tail, err := d.Alloc(33, isa.UInt16)
	if err != nil {
		t.Fatal(err)
	}
	if functional {
		if err := d.CopyHostToDevice(tail, snapValues(33, 31)); err != nil {
			t.Fatal(err)
		}
	}
}

// continueOps drives further work on a device, exercising everything the
// restored state feeds: sequential ID assignment, fault injection sequence,
// stats accumulation, and trace numbering.
func continueOps(t *testing.T, d *Device) {
	t.Helper()
	x, err := d.Alloc(100, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.Functional {
		if err := d.CopyHostToDevice(x, snapValues(100, 41)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ExecScalar(isa.OpAdd, x, 7, x); err != nil {
		t.Fatal(err)
	}
	if err := d.ExecUnary(isa.OpNot, x, x); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RedSum(x); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(x); err != nil {
		t.Fatal(err)
	}
}

// fingerprint renders the complete observable and internal device state as a
// comparable string: report, trace, stats, fault counters, the object table
// (IDs, types, data), the freed set, and the ID counter.
func fingerprint(t *testing.T, d *Device) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(d.ReportString())
	sb.WriteString(d.TraceString())
	fmt.Fprintf(&sb, "stats=%+v\n", d.Stats().State())
	fmt.Fprintf(&sb, "faults=%+v\n", d.FaultCounts())
	fmt.Fprintf(&sb, "nextID=%d usedBits=%d\n", d.res.nextID, d.res.usedBits)
	ids := make([]ObjID, 0, len(d.res.objs))
	for id := range d.res.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := d.res.objs[id]
		fmt.Fprintf(&sb, "obj %d %v n=%d data=%v\n", id, o.dt, o.n, o.data)
	}
	freed := make([]ObjID, 0, len(d.res.freed))
	for id := range d.res.freed {
		freed = append(freed, id)
	}
	sort.Slice(freed, func(i, j int) bool { return freed[i] < freed[j] })
	fmt.Fprintf(&sb, "freed=%v\n", freed)
	return sb.String()
}

func snapshotBytes(t *testing.T, d *Device, cursor int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf, cursor); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip proves restore reproduces the device exactly — and
// that original and restored devices stay bit-identical through further
// operations (allocation IDs, fault sequence, stats, trace all continue in
// lockstep).
func TestSnapshotRoundTrip(t *testing.T) {
	for _, v := range snapVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := buildSnapDevice(t, v)
			want := fingerprint(t, d)
			snap := snapshotBytes(t, d, 42)

			r, cursor, err := RestoreSnapshot(bytes.NewReader(snap), 1)
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			if cursor != 42 {
				t.Fatalf("cursor = %d, want 42", cursor)
			}
			if got := fingerprint(t, r); got != want {
				t.Fatalf("restored state differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}

			continueOps(t, d)
			continueOps(t, r)
			if got, want := fingerprint(t, r), fingerprint(t, d); got != want {
				t.Fatalf("post-restore divergence:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
			}
		})
	}
}

// TestSnapshotByteStable proves Snapshot→Restore→Snapshot reproduces the
// exact snapshot bytes.
func TestSnapshotByteStable(t *testing.T) {
	for _, v := range snapVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := buildSnapDevice(t, v)
			snap1 := snapshotBytes(t, d, 7)
			r, _, err := RestoreSnapshot(bytes.NewReader(snap1), 1)
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			snap2 := snapshotBytes(t, r, 7)
			if !bytes.Equal(snap1, snap2) {
				t.Fatalf("snapshot not byte-stable: %d vs %d bytes", len(snap1), len(snap2))
			}
			// Snapshotting the same device twice is also deterministic.
			if snap3 := snapshotBytes(t, d, 7); !bytes.Equal(snap1, snap3) {
				t.Fatal("snapshot of unchanged device is not deterministic")
			}
		})
	}
}

// isSnapshotErr reports whether err wraps one of the snapshot sentinels.
func isSnapshotErr(err error) bool {
	return errors.Is(err, ErrSnapshotFormat) ||
		errors.Is(err, ErrSnapshotTruncated) ||
		errors.Is(err, ErrSnapshotCorrupt)
}

// TestSnapshotTruncationSweep feeds every proper prefix of a snapshot to the
// decoder: each must fail with a clean sentinel, never panic, never succeed.
func TestSnapshotTruncationSweep(t *testing.T) {
	v := snapVariant{name: "functional/ecc", functional: true, trace: true,
		faults: &fault.Config{Seed: 7, TransientBitRate: 1e-7, ECC: true}}
	snap := snapshotBytes(t, buildSnapDevice(t, v), 5)
	for n := 0; n < len(snap); n++ {
		_, _, err := RestoreSnapshot(bytes.NewReader(snap[:n]), 1)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes restored successfully", n, len(snap))
		}
		if !isSnapshotErr(err) {
			t.Fatalf("prefix of %d bytes: non-sentinel error %v", n, err)
		}
	}
}

// TestSnapshotBitFlipSweep flips every bit of a snapshot in turn: the CRC
// framing guarantees every single-bit flip is detected, so each mutant must
// fail with a sentinel — never restore silently wrong.
func TestSnapshotBitFlipSweep(t *testing.T) {
	v := snapVariant{name: "functional", functional: true, trace: true}
	snap := snapshotBytes(t, buildSnapDevice(t, v), 5)
	if testing.Short() && len(snap) > 512 {
		snap = snap[:len(snap)] // sweep stays exhaustive; snapshots are ~KB
	}
	mut := make([]byte, len(snap))
	for i := 0; i < len(snap); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, snap)
			mut[i] ^= 1 << bit
			_, _, err := RestoreSnapshot(bytes.NewReader(mut), 1)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d restored successfully", i, bit)
			}
			if !isSnapshotErr(err) {
				t.Fatalf("bit flip at byte %d bit %d: non-sentinel error %v", i, bit, err)
			}
		}
	}
}

// TestSnapshotGarbage feeds unstructured and half-structured garbage.
func TestSnapshotGarbage(t *testing.T) {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return byte(seed)
	}
	for length := 0; length < 256; length += 7 {
		buf := make([]byte, length)
		for i := range buf {
			buf[i] = next()
		}
		if _, _, err := RestoreSnapshot(bytes.NewReader(buf), 1); err == nil || !isSnapshotErr(err) {
			t.Fatalf("garbage of %d bytes: err = %v", length, err)
		}
		// Same tail behind a valid magic and version.
		framed := append([]byte(snapMagic+"\x01"), buf...)
		if _, _, err := RestoreSnapshot(bytes.NewReader(framed), 1); err == nil || !isSnapshotErr(err) {
			t.Fatalf("framed garbage of %d bytes: err = %v", length, err)
		}
	}
}

// TestSnapshotPreconditions covers states a snapshot may not be taken in.
func TestSnapshotPreconditions(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf, -1); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative cursor: %v", err)
	}
	err := d.WithRepeat(2, func() error {
		return d.WriteSnapshot(&buf, 0)
	})
	if !errors.Is(err, ErrBadArgument) {
		t.Errorf("snapshot inside WithRepeat: %v", err)
	}
	d.StartRecording()
	if err := d.WriteSnapshot(&buf, 0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("snapshot while recording: %v", err)
	}
	d2 := newDev(t, TargetFulcrum)
	d2.AddSink(sinkFunc(func(*Event) {}))
	if err := d2.WriteSnapshot(&buf, 0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("snapshot with extra sink: %v", err)
	}
}

type sinkFunc func(*Event)

func (f sinkFunc) Emit(ev *Event) { f(ev) }

// failAfterWriter fails with a distinctive error once n bytes have been
// written.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSnapshotWriterFailure proves write errors at every offset propagate
// cleanly out of WriteSnapshot.
func TestSnapshotWriterFailure(t *testing.T) {
	d := buildSnapDevice(t, snapVariant{functional: true, trace: true})
	full := snapshotBytes(t, d, 0)
	sentinel := errors.New("disk on fire")
	for n := 0; n < len(full); n += 13 {
		if err := d.WriteSnapshot(&failAfterWriter{n: n, err: sentinel}, 0); !errors.Is(err, sentinel) {
			t.Fatalf("fail after %d bytes: err = %v", n, err)
		}
	}
}

// TestSnapshotRestoreMismatchedWorkers proves worker count is observational:
// a snapshot taken on one worker restores on many and stays bit-identical.
func TestSnapshotRestoreMismatchedWorkers(t *testing.T) {
	v := snapVariant{functional: true, trace: true}
	d := buildSnapDevice(t, v)
	continueOps(t, d)
	snap := snapshotBytes(t, buildSnapDevice(t, v), 0)
	r, _, err := RestoreSnapshot(bytes.NewReader(snap), 4)
	if err != nil {
		t.Fatal(err)
	}
	continueOps(t, r)
	if got, want := fingerprint(t, r), fingerprint(t, d); got != want {
		t.Fatalf("restore with different workers diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestSnapshotChaosIO drives the snapshot codec through the chaos harness:
// torn writes at many boundaries propagate the injected error, short reads
// restore bit-identically, and a read budget fails with a clean sentinel.
func TestSnapshotChaosIO(t *testing.T) {
	d := buildSnapDevice(t, snapVariant{functional: true, trace: true})
	want := fingerprint(t, d)
	full := snapshotBytes(t, d, 3)

	for n := int64(0); n < int64(len(full)); n += 17 {
		w := &chaos.Writer{W: io.Discard, FailAfter: n, Torn: true}
		if err := d.WriteSnapshot(w, 3); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("torn write at %d: err = %v", n, err)
		}
	}

	r, cursor, err := RestoreSnapshot(&chaos.Reader{
		R: bytes.NewReader(full), Rand: chaos.NewRand(5), FailAfter: -1,
	}, 1)
	if err != nil {
		t.Fatalf("restore under short reads: %v", err)
	}
	if cursor != 3 {
		t.Fatalf("cursor = %d", cursor)
	}
	if got := fingerprint(t, r); got != want {
		t.Fatal("short-read restore diverged")
	}

	for n := int64(0); n < int64(len(full)); n += 23 {
		_, _, err := RestoreSnapshot(&chaos.Reader{R: bytes.NewReader(full), FailAfter: n}, 1)
		if err == nil || !(isSnapshotErr(err) || errors.Is(err, chaos.ErrInjected)) {
			t.Fatalf("read budget %d: err = %v", n, err)
		}
	}
}

// TestSnapshotFrameLiesAboutLength proves a frame whose header promises
// more data than the input carries is rejected before anything is
// allocated for it: an object frame claiming 2^24 elements over 16 data
// bytes (a 128 MiB carrier), and a meta frame declaring a 64 MiB section
// over no bytes at all.
func TestSnapshotFrameLiesAboutLength(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	meta, err := json.Marshal(snapMeta{Stream: d.streamHeader(), NextID: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := func() (*bytes.Buffer, *snapWriter) {
		var buf bytes.Buffer
		buf.WriteString(snapMagic)
		buf.WriteByte(snapVersion)
		return &buf, &snapWriter{w: &buf}
	}

	object, sw := start()
	if err := sw.blob(snapTagMeta, meta); err != nil {
		t.Fatal(err)
	}
	name := isa.Int64.String()
	hdr := binary.AppendUvarint(nil, 1)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, 1<<24)
	hdr = append(hdr, 1)
	data := make([]byte, 16)
	if err := sw.frameStart(snapTagObject, uint64(len(hdr)+len(data))); err != nil {
		t.Fatal(err)
	}
	if err := sw.write(append(hdr, data...)); err != nil {
		t.Fatal(err)
	}
	if err := sw.frameEnd(); err != nil {
		t.Fatal(err)
	}

	section, sw := start()
	if err := sw.frameStart(snapTagMeta, maxSnapSection); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"object", object.Bytes(), ErrSnapshotCorrupt},
		{"section", section.Bytes(), ErrSnapshotTruncated},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err := RestoreSnapshot(bytes.NewReader(c.in), 1)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: rejecting the frame allocated %d bytes, want < 1 MiB", c.name, grew)
		}
	}
}

// FuzzSnapshot drives the PIMS decoder with mutated snapshots. Restore must
// never panic, every rejection must wrap a snapshot sentinel, and any input
// it accepts must re-snapshot to exactly the same bytes.
func FuzzSnapshot(f *testing.F) {
	for _, v := range snapVariants() {
		if v.name == "model" || v.name == "functional" || v.name == "functional/ecc" {
			d := buildSnapDevice(f, v)
			var buf bytes.Buffer
			if err := d.WriteSnapshot(&buf, 5); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	var wrapped bytes.Buffer
	if err := wrappedTraceDevice(f, 10).WriteSnapshot(&wrapped, 9); err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, cursor, err := RestoreSnapshot(bytes.NewReader(data), 1)
		if err != nil {
			if !isSnapshotErr(err) {
				t.Fatalf("error wraps no snapshot sentinel: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf, cursor); err != nil {
			t.Fatalf("re-snapshot of an accepted snapshot: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted snapshot re-snapshots to different bytes (%d vs %d)", buf.Len(), len(data))
		}
	})
}
