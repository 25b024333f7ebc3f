package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer's public functions; the span name is "<module>.<call>". Calls
// made once per record (Next, the Executor methods) would cost more to span
// than they take, so they are folded into aggregates on the enclosing span.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"` // index in the same tracer, -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Aggs   []agg  `json:"aggs,omitempty"`
}

// agg sums the per-record calls of one kind made inside a span. Aggregates
// on one span never overlap each other.
type agg struct {
	Name  string `json:"name"`
	NS    int64  `json:"ns"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes,omitempty"`       // payload bytes moved (8 per element)
	Alloc int64  `json:"alloc_bytes,omitempty"` // heap bytes allocated inside the calls
}

func (a *agg) since(t time.Time) {
	a.NS += int64(time.Since(t))
	a.Count++
}

// tracer keeps one client's spans in memory. A nil *tracer is the untraced
// run: every method is a no-op, so workload code calls it unconditionally.
type tracer struct {
	op    int64
	stack []int32
	spans []span
	// counts are per-op work counters (records, bytes, ...) summed over
	// the traced window.
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{counts: map[string]int64{}} }

// traceBase is the clock origin of every span, client- and server-side.
var traceBase = time.Now()

// now reads the span clock: nanoseconds since traceBase.
func now() int64 { return int64(time.Since(traceBase)) }

// beginOp opens the root span of op id.
func (t *tracer) beginOp(id int64) int32 {
	if t == nil {
		return -1
	}
	t.op = id
	t.stack = t.stack[:0]
	return t.begin("bench.op")
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now()})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = now()
	t.stack = t.stack[:len(t.stack)-1]
}

// child records an already finished span (timed elsewhere, on the same
// clock) under the innermost open one.
func (t *tracer) child(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.stack[len(t.stack)-1], Start: start, End: end})
}

// aggs attaches per-record aggregates to span i.
func (t *tracer) aggs(i int32, as ...agg) {
	if t == nil {
		return
	}
	for _, a := range as {
		if a.Count > 0 {
			t.spans[i].Aggs = append(t.spans[i].Aggs, a)
		}
	}
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.counts[name] += n
}

// timedSource wraps a stream source, timing record decode (Next) and
// payload unpack (NextPayloadChunk) separately. It always offers the
// chunked-payload interface and reports a pending payload only when the
// wrapped source does, so the replay loop takes the same path it takes on
// the bare source.
type timedSource struct {
	src     cmdstream.Source
	cs      cmdstream.ChunkedSource
	allocs  runtimeValue
	next    agg
	payload agg
}

func newTimedSource(src cmdstream.Source, allocs runtimeValue) *timedSource {
	cs, _ := src.(cmdstream.ChunkedSource)
	return &timedSource{src: src, cs: cs, allocs: allocs,
		next: agg{Name: "cmdstream.next"}, payload: agg{Name: "cmdstream.payload"}}
}

func (s *timedSource) Header() cmdstream.Header { return s.src.Header() }
func (s *timedSource) Close() error             { return s.src.Close() }

func (s *timedSource) Next() (*cmdstream.Record, error) {
	t := time.Now()
	rec, err := s.src.Next()
	s.next.NS += int64(time.Since(t))
	if rec != nil {
		s.next.Count++
	}
	return rec, err
}

func (s *timedSource) PendingPayload() bool { return s.cs != nil && s.cs.PendingPayload() }

func (s *timedSource) NextPayloadChunk() ([]int64, error) {
	if s.cs == nil {
		return nil, io.EOF
	}
	a := s.allocs.read()
	t := time.Now()
	chunk, err := s.cs.NextPayloadChunk()
	s.payload.since(t)
	s.payload.Alloc += int64(s.allocs.read() - a)
	s.payload.Bytes += 8 * int64(len(chunk))
	return chunk, err
}

// timedExec wraps a device as the replay loop's Executor, timing every
// call into it. Chunked host-to-device copies are timed apart (device.h2d)
// with the payload unpack they pull through the source taken out.
type timedExec struct {
	d    *device.Device
	src  *timedSource
	exec agg
	h2d  agg
}

func newTimedExec(d *device.Device, src *timedSource) *timedExec {
	return &timedExec{d: d, src: src, exec: agg{Name: "device.exec"}, h2d: agg{Name: "device.h2d"}}
}

var _ cmdstream.Executor = (*timedExec)(nil)
var _ cmdstream.ChunkedExecutor = (*timedExec)(nil)

func (x *timedExec) CopyHostToDeviceFrom(id cmdstream.ObjID, next func() ([]int64, error)) error {
	p0, b0 := x.src.payload.NS, x.src.payload.Bytes
	t := time.Now()
	err := x.d.CopyHostToDeviceFrom(id, next)
	x.h2d.NS += int64(time.Since(t)) - (x.src.payload.NS - p0)
	x.h2d.Count++
	x.h2d.Bytes += x.src.payload.Bytes - b0
	return err
}

// WithRepeat times only the scope's own lowering: the body's calls come
// back through x and are timed one by one.
func (x *timedExec) WithRepeat(n int64, fn func() error) error {
	inner := x.exec.NS
	t := time.Now()
	err := x.d.WithRepeat(n, fn)
	x.exec.NS += int64(time.Since(t)) - (x.exec.NS - inner)
	return err
}

func (x *timedExec) Alloc(n int64, dt isa.DataType) (cmdstream.ObjID, error) {
	t := time.Now()
	id, err := x.d.Alloc(n, dt)
	x.exec.since(t)
	return id, err
}

func (x *timedExec) AllocAs(id cmdstream.ObjID, n int64, dt isa.DataType) error {
	t := time.Now()
	err := x.d.AllocAs(id, n, dt)
	x.exec.since(t)
	return err
}

func (x *timedExec) Free(id cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.Free(id)
	x.exec.since(t)
	return err
}

func (x *timedExec) CopyHostToDevice(id cmdstream.ObjID, values []int64) error {
	t := time.Now()
	err := x.d.CopyHostToDevice(id, values)
	x.exec.since(t)
	return err
}

func (x *timedExec) CopyDeviceToHost(id cmdstream.ObjID) ([]int64, error) {
	t := time.Now()
	v, err := x.d.CopyDeviceToHost(id)
	x.exec.since(t)
	return v, err
}

func (x *timedExec) CopyDeviceToDevice(src, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.CopyDeviceToDevice(src, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) CopyDeviceToDeviceRange(src cmdstream.ObjID, srcOff int64, dst cmdstream.ObjID, dstOff, n int64) error {
	t := time.Now()
	err := x.d.CopyDeviceToDeviceRange(src, srcOff, dst, dstOff, n)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecBinary(op isa.Op, a, b, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.ExecBinary(op, a, b, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecScalar(op isa.Op, a cmdstream.ObjID, scalar int64, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.ExecScalar(op, a, scalar, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecUnary(op isa.Op, a, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.ExecUnary(op, a, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecShift(op isa.Op, a cmdstream.ObjID, amount int, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.ExecShift(op, a, amount, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecSelect(cond, a, b, dst cmdstream.ObjID) error {
	t := time.Now()
	err := x.d.ExecSelect(cond, a, b, dst)
	x.exec.since(t)
	return err
}

func (x *timedExec) ExecFused(f cmdstream.Fused) error {
	t := time.Now()
	err := x.d.ExecFused(f)
	x.exec.since(t)
	return err
}

func (x *timedExec) Broadcast(dst cmdstream.ObjID, val int64) error {
	t := time.Now()
	err := x.d.Broadcast(dst, val)
	x.exec.since(t)
	return err
}

func (x *timedExec) RedSum(a cmdstream.ObjID) (int64, error) {
	t := time.Now()
	v, err := x.d.RedSum(a)
	x.exec.since(t)
	return v, err
}

func (x *timedExec) RedSumSeg(a cmdstream.ObjID, segLen int64) ([]int64, error) {
	t := time.Now()
	v, err := x.d.RedSumSeg(a, segLen)
	x.exec.since(t)
	return v, err
}

func (x *timedExec) RecordHost(cost perf.Cost) {
	t := time.Now()
	x.d.RecordHost(cost)
	x.exec.since(t)
}

// opHeader carries the client's op id to the server-side handler timer.
const opHeader = "X-Perfbench-Op"

// handlerTimes times the server's HTTP handler per op, from outside the
// server: the benchmark wraps server.ServeHTTP. Requests without opHeader
// (the untraced run) pass straight through.
type handlerTimes struct {
	h    http.Handler
	mu   sync.Mutex
	byOp map[int64][2]int64
}

func (ht *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		ht.h.ServeHTTP(w, r)
		return
	}
	start := now()
	ht.h.ServeHTTP(w, r)
	end := now()
	ht.mu.Lock()
	ht.byOp[id] = [2]int64{start, end}
	ht.mu.Unlock()
}

// take returns and forgets op id's handler interval. The handler records
// it before net/http finishes the response, so it is there by the time
// the client has read the whole body.
func (ht *handlerTimes) take(id int64) (start, end int64, ok bool) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	v, ok := ht.byOp[id]
	delete(ht.byOp, id)
	return v[0], v[1], ok
}

// module is the layer a span or aggregate name belongs to.
func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	return m
}

// breakdown is what the traced window's spans add up to.
type breakdown struct {
	ops int64
	// self is wall time per module not covered by child spans or
	// aggregates; the "bench" module (op roots) is the unattributed rest.
	self map[string]int64
	// calls sums span durations and counts per span name; aggs sums the
	// aggregates per name.
	calls map[string]agg
	aggs  map[string]agg
	// durs keeps every duration per span name, for percentiles.
	durs   map[string][]float64
	counts map[string]int64
}

func newBreakdown() *breakdown {
	return &breakdown{self: map[string]int64{}, calls: map[string]agg{}, aggs: map[string]agg{},
		durs: map[string][]float64{}, counts: map[string]int64{}}
}

// add folds one tracer's spans into b.
func (b *breakdown) add(t *tracer) {
	covered := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.End - s.Start
		if s.Parent >= 0 {
			covered[s.Parent] += d
		} else {
			b.ops++
		}
		for _, a := range s.Aggs {
			covered[i] += a.NS
			b.self[module(a.Name)] += a.NS
			c := b.aggs[a.Name]
			c.NS += a.NS
			c.Count += a.Count
			c.Bytes += a.Bytes
			c.Alloc += a.Alloc
			b.aggs[a.Name] = c
		}
		c := b.calls[s.Name]
		c.NS += d
		c.Count++
		b.calls[s.Name] = c
		b.durs[s.Name] = append(b.durs[s.Name], float64(d))
	}
	for i := range t.spans {
		s := &t.spans[i]
		b.self[module(s.Name)] += s.End - s.Start - covered[i]
	}
	for k, v := range t.counts {
		b.counts[k] += v
	}
}
