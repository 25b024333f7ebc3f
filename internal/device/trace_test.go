package device

import (
	"bytes"
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// wrappedTraceDevice returns a functional device whose trace has wrapped:
// it issued traceLimit+extra traced commands after one untraced setup copy.
func wrappedTraceDevice(tb testing.TB, extra int) *Device {
	tb.Helper()
	d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := d.Alloc(1024, isa.Int32)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.CopyHostToDevice(a, snapValues(1024, 5)); err != nil {
		tb.Fatal(err)
	}
	d.EnableTrace()
	for i := 0; i < traceLimit+extra; i++ {
		if err := d.ExecScalar(isa.OpAdd, a, int64(i), a); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// TestTraceRingKeepsNewest proves a full trace keeps exactly the most
// recent traceLimit entries, oldest first, with contiguous sequence numbers.
func TestTraceRingKeepsNewest(t *testing.T) {
	const extra = 1000
	d := wrappedTraceDevice(t, extra)
	tr := d.Trace()
	if len(tr) != traceLimit {
		t.Fatalf("trace holds %d entries, want %d", len(tr), traceLimit)
	}
	for i, e := range tr {
		if want := int64(extra + 1 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	// TraceString renders the same order: its first entry line is the
	// oldest retained entry.
	lines := bytes.SplitN([]byte(d.TraceString()), []byte("\n"), 3)
	if got, want := string(lines[1]), tr[0].String(); got != want {
		t.Fatalf("first trace line %q, want %q", got, want)
	}
}

// TestSnapshotWrappedTrace proves a wrapped trace snapshots oldest first:
// restore then re-snapshot reproduces the bytes, and the restored device
// keeps tracing in lockstep with the original.
func TestSnapshotWrappedTrace(t *testing.T) {
	d := wrappedTraceDevice(t, 1000)
	snap := snapshotBytes(t, d, 3)
	r, _, err := RestoreSnapshot(bytes.NewReader(snap), 1)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if again := snapshotBytes(t, r, 3); !bytes.Equal(snap, again) {
		t.Fatalf("wrapped trace not byte-stable: %d vs %d bytes", len(snap), len(again))
	}
	continueOps(t, d)
	continueOps(t, r)
	if got, want := r.TraceString(), d.TraceString(); got != want {
		t.Fatal("restored trace diverged from the original after further commands")
	}
}

// BenchmarkTracedExec measures one traced command on a full trace, the
// steady state of any long traced run.
func BenchmarkTracedExec(b *testing.B) {
	d := wrappedTraceDevice(b, 0)
	a := ObjID(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ExecScalar(isa.OpAdd, a, 1, a); err != nil {
			b.Fatal(err)
		}
	}
}
