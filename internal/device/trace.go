package device

import (
	"fmt"
	"strings"

	"pimeval/internal/perf"
)

// TraceEntry records one dispatched command or copy for inspection.
type TraceEntry struct {
	Seq  int64
	Name string // command mnemonic or copy direction
	N    int64  // elements processed / bytes moved
	Reps int64  // WithRepeat multiplier in effect
	Cost perf.Cost
}

// String renders the entry as one trace line.
func (e TraceEntry) String() string {
	reps := ""
	if e.Reps > 1 {
		reps = fmt.Sprintf(" x%d", e.Reps)
	}
	return fmt.Sprintf("%6d  %-16s n=%-12d%s  %.3f us  %.3f uJ",
		e.Seq, e.Name, e.N, reps, e.Cost.TimeNS/1e3, e.Cost.EnergyPJ/1e6)
}

// traceLimit bounds the retained trace so paper-scale runs with hundreds of
// thousands of commands keep only the most recent window.
const traceLimit = 1 << 16

// traceSink is the pipeline sink behind the command trace: it renders exec
// and copy events into trace entries while enabled, keeping the most recent
// traceLimit entries in a ring. Sequence numbers advance only while tracing
// is on.
type traceSink struct {
	tracing bool
	seq     int64
	entries []TraceEntry
	head    int // index of the oldest entry once the ring is full
}

// Emit appends a trace entry for traceable (named) events while enabled.
func (t *traceSink) Emit(ev *Event) {
	if !t.tracing || ev.Name == "" {
		return
	}
	t.seq++
	e := TraceEntry{Seq: t.seq, Name: ev.Name, N: ev.N, Reps: ev.Reps, Cost: ev.TraceCost}
	if len(t.entries) < traceLimit {
		t.entries = append(t.entries, e)
		return
	}
	t.entries[t.head] = e
	t.head = (t.head + 1) % traceLimit
}

// ordered returns the retained entries oldest first, as the two runs of
// the ring: from the oldest entry to the end, then from the start.
func (t *traceSink) ordered() [2][]TraceEntry {
	return [2][]TraceEntry{t.entries[t.head:], t.entries[:t.head]}
}

// EnableTrace starts recording dispatched commands and copies. The trace
// retains the most recent 64Ki entries.
func (d *Device) EnableTrace() { d.pipe.trace.tracing = true }

// DisableTrace stops recording (the collected trace is kept).
func (d *Device) DisableTrace() { d.pipe.trace.tracing = false }

// Trace returns the recorded entries in dispatch order.
func (d *Device) Trace() []TraceEntry {
	runs := d.pipe.trace.ordered()
	return append(append([]TraceEntry(nil), runs[0]...), runs[1]...)
}

// TraceString renders the whole trace.
func (d *Device) TraceString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %-16s %-15s %10s %10s\n", "seq", "command", "elements", "time", "energy")
	for _, run := range d.pipe.trace.ordered() {
		for _, e := range run {
			fmt.Fprintln(&b, e.String())
		}
	}
	return b.String()
}
