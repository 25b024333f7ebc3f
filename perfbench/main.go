// Command perfbench is the repository's end-to-end benchmark. Each workload
// is a closed loop over one fixed op on one of the simulator's two user
// paths — local stream replay or capture, and sessions served by the
// stream-execution server — timed after an untimed warm-up, with every op
// verified against references built during set-up. README.md explains the
// workloads, metrics and layer tracing.
//
//	bash perfbench/run.sh --workload replay-model --seed 1 --seconds 20 --trace 0
//
// Every figure is printed by name with its unit, with the machine and
// run-quality record; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run measures half its
// time untraced and half traced, and reports the per-layer figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minOps extends a window past its time until it holds this many ops,
	// so that op_p90_ms has at least ten samples beyond it.
	minOps int
	warmup time.Duration
	// traceDir receives the traced run's spans; empty writes none.
	traceDir string
	// corrupt flips one reference after set-up, so every op that checks it
	// fails: the benchmark's self-test of its own verification.
	corrupt bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 15, minOps: 110, warmup: time.Second}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: replay-model, replay-functional, serve-small or capture-model")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the order of streams and sessions")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer figures from a traced run")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o.trace = traceFlag == 1
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// figure is one reported number.
type figure struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	opts      options
	machine   machine
	steal     float64 // hypervisor steal share of machine CPU time over the run
	ops       int     // ops in the window that gives op_p50_ms and op_p90_ms
	p90Beyond int
	attempted int64
	failed    int64
	errors    []string
	notes     []string
	simPerOp  float64
	// figures go into the JSON line. unsteady figures are printed only:
	// on a shared machine their run-to-run spread exceeds any bound a
	// regression gate could use (README.md, "Steadiness").
	figures  []figure
	unsteady []figure
}

// bench sets the workload up, warms it, measures it and checks every op.
func bench(o options) (r *result, err error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	total0, steal0, stealOK := cpuTimes()
	r = &result{opts: o, machine: describeMachine()}

	var inst *instance
	defer func() {
		if inst == nil {
			return
		}
		if cerr := inst.close(); cerr != nil && err == nil {
			r, err = nil, fmt.Errorf("shut down %s: %w", w.name, cerr)
		}
	}()
	// Set-up is timed in process CPU seconds, which exclude steal; its wall
	// time is printed beside.
	setupCPU := make([]float64, 0, o.setups)
	setupWall := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		p0 := sampleProc()
		next, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		d := deltaProc(p0, sampleProc())
		setupCPU = append(setupCPU, (d.userMS+d.sysMS)/1e3)
		setupWall = append(setupWall, d.wallS)
		if inst != nil {
			if err := inst.close(); err != nil {
				next.close()
				return nil, fmt.Errorf("shut down %s: %w", w.name, err)
			}
		}
		inst = next
	}
	if o.corrupt {
		inst.items[0].want.metrics.KernelMS++
	}

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(i, o.seed, len(inst.items))
	}
	counts := &tally{}
	window(inst, clients, o.warmup, len(clients), counts)

	seconds := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		win := window(inst, clients, seconds, o.minOps, counts)
		r.endToEnd(median(setupCPU), median(setupWall), win)
	} else {
		base := window(inst, clients, seconds/2, len(clients), counts)
		for _, c := range clients {
			c.tr = newTracer()
		}
		traced := window(inst, clients, seconds/2, len(clients), counts)
		bd := newBreakdown()
		for _, c := range clients {
			bd.add(c.tr)
		}
		var probe *breakdown
		if inst.probe {
			probe = runProbe(inst, counts)
		}
		r.perLayer(base, traced, bd, probe, counts)
		if o.traceDir != "" {
			if err := writeSpans(o, clients); err != nil {
				return nil, err
			}
		}
	}
	r.attempted, r.failed, r.errors = counts.attempted.Load(), counts.failed.Load(), counts.firstErrors()
	r.simPerOp = simPerOp(inst, clients)
	r.notes = inst.notes

	if total1, steal1, ok := cpuTimes(); ok && stealOK && total1 > total0 {
		r.steal = (steal1 - steal0) / (total1 - total0)
	}
	return r, nil
}

// tally counts every op the run executes, warm-up included.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

func (t *tally) firstErrors() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.errs...)
}

func newClient(id int, seed int64, items int) *client {
	sims := make([]float64, items)
	for i := range sims {
		sims[i] = math.NaN()
	}
	return &client{
		opID:   int64(id) << 32, // op ids stay unique across clients
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		allocs: newRuntimeValue(metricAllocBytes),
		heap:   newRuntimeValue(metricHeapBytes),
		sims:   sims,
	}
}

// windowResult is what one measured window saw.
type windowResult struct {
	latMS    []float64 // every op's wall latency
	heap     []float64 // heap bytes in use at each op completion
	ops      int64
	verified int64
	proc     procDelta
}

// window runs every client in a closed loop for d, and on until the
// clients have completed minOps ops between them; a hard cap keeps a
// stalled run inside the benchmark's time limit.
func window(inst *instance, clients []*client, d time.Duration, minOps int, counts *tally) windowResult {
	runtime.GC()
	var done atomic.Int64
	var mu sync.Mutex
	var res windowResult
	hardCap := 4 * d
	if hardCap > 100*time.Second {
		hardCap = 100 * time.Second
	}
	p0 := sampleProc()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var lat, heap []float64
			var verified int64
			for {
				el := time.Since(start)
				if el >= hardCap || (el >= d && done.Load() >= int64(minOps)) {
					break
				}
				c.opID++
				root := c.tr.beginOp(c.opID)
				t := time.Now()
				err := inst.op(c)
				lat = append(lat, float64(time.Since(t))/1e6)
				c.tr.end(root)
				heap = append(heap, float64(c.heap.read()))
				counts.attempted.Add(1)
				if err != nil {
					counts.fail(err)
				} else {
					verified++
				}
				done.Add(1)
			}
			mu.Lock()
			res.latMS = append(res.latMS, lat...)
			res.heap = append(res.heap, heap...)
			res.verified += verified
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.proc = deltaProc(p0, sampleProc())
	res.ops = done.Load()
	return res
}

// runProbe replays each item's stream through the local decode path, with
// the layer wrappers, on a client of its own.
func runProbe(inst *instance, counts *tally) *breakdown {
	const reps = 20
	c := newClient(-1, 0, len(inst.items))
	c.tr = newTracer()
	for rep := 0; rep < reps; rep++ {
		for i := range inst.items {
			c.opID++
			root := c.tr.beginOp(c.opID)
			_, err := runReplay(c, &inst.items[i])
			c.tr.end(root)
			counts.attempted.Add(1)
			if err != nil {
				counts.fail(fmt.Errorf("probe %s: %w", inst.items[i].name, err))
			}
		}
	}
	bd := newBreakdown()
	bd.add(c.tr)
	return bd
}

// simPerOp is the modelled milliseconds of one op, from the items' verified
// outputs summed in item order (an op bundles every item) or averaged over
// the items (an op is one item), so that it repeats exactly.
func simPerOp(inst *instance, clients []*client) float64 {
	sum := 0.0
	for i := range inst.items {
		v := math.NaN()
		for _, c := range clients {
			if !math.IsNaN(c.sims[i]) {
				v = c.sims[i]
				break
			}
		}
		sum += v
	}
	if !inst.bundle {
		sum /= float64(len(inst.items))
	}
	return sum
}

// endToEnd sets the figures a user of the simulator sees.
func (r *result) endToEnd(setupS, setupWallS float64, w windowResult) {
	lat := sortedCopy(w.latMS)
	p90 := quantile(lat, 0.9)
	r.ops, r.p90Beyond = len(lat), beyond(lat, p90)
	n := float64(w.ops)
	r.figures = []figure{
		{"setup_s", setupS, "s"},
		{"cpu_ms_per_op", (w.proc.userMS + w.proc.sysMS) / n, "ms"},
		{"alloc_mib_per_op", w.proc.allocBytes / n / mib, "MiB"},
		{"heap_mib", median(w.heap) / mib, "MiB"},
	}
	r.unsteady = []figure{
		{"setup_wall_s", setupWallS, "s"},
		{"ops_per_s", float64(w.verified) / w.proc.wallS, "1/s"},
		{"op_p50_ms", quantile(lat, 0.5), "ms"},
		{"op_p90_ms", p90, "ms"},
	}
}

// perLayer sets the traced run's figures. base is the untraced half of the
// run, traced the traced half; probe, when set, supplies the decode and
// device figures of a workload that makes those calls inside the server.
func (r *result) perLayer(base, traced windowResult, bd, probe *breakdown, counts *tally) {
	lat := sortedCopy(traced.latMS)
	r.ops, r.p90Beyond = len(lat), beyond(lat, quantile(lat, 0.9))
	ops := float64(bd.ops)
	local := bd
	if probe != nil {
		local = probe
	}
	// perCallUS is the mean duration of one call, in microseconds.
	perCallUS := func(name string) float64 {
		c := local.calls[name]
		return ratio(float64(c.NS), float64(c.Count)) / 1e3
	}
	records := float64(local.counts["records"])
	next, payload := local.aggs["cmdstream.next"], local.aggs["cmdstream.payload"]
	exec, h2d := local.aggs["device.exec"], local.aggs["device.h2d"]
	// Only capture-model encodes and optimizes; its records are the ones
	// captured.
	enc, opt := bd.calls["cmdstream.encode"], bd.calls["streamopt.optimize"]
	removed := 0.0
	if opt.Count > 0 {
		removed = ratio(float64(bd.counts["records"]-bd.counts["optimized_records"]), float64(bd.counts["records"]))
	}
	handler := bd.durs["server.handler"]
	transport := transportMS(bd)
	baseCPU := (base.proc.userMS + base.proc.sysMS) / float64(base.ops)
	tracedCPU := (traced.proc.userMS + traced.proc.sysMS) / float64(traced.ops)
	all := float64(counts.attempted.Load())
	r.figures = []figure{
		{"cmdstream.records_per_op", float64(bd.counts["records"]) / ops, "count"},
		{"cmdstream.bytes_per_op", float64(bd.counts["bytes"]) / ops, "B"},
		{"cmdstream.open_us", perCallUS("cmdstream.open"), "us"},
		{"cmdstream.next_ns_per_record", ratio(float64(next.NS), float64(next.Count)), "ns"},
		{"cmdstream.payload_us_per_mib", ratio(float64(payload.NS)/1e3, float64(payload.Bytes)/mib), "us/MiB"},
		{"cmdstream.payload_alloc_mib_per_op", float64(payload.Alloc) / mib / float64(local.ops), "MiB"},
		{"cmdstream.encode_ns_per_record", ratio(float64(enc.NS), float64(bd.counts["records"])), "ns"},
		{"device.new_us", perCallUS("device.new"), "us"},
		{"device.exec_ns_per_record", ratio(float64(exec.NS), records), "ns"},
		{"device.h2d_us_per_mib", ratio(float64(h2d.NS)/1e3, float64(h2d.Bytes)/mib), "us/MiB"},
		{"device.report_us", perCallUS("device.report"), "us"},
		{"stats.csv_us", perCallUS("stats.csv"), "us"},
		{"streamopt.optimize_ns_per_record", ratio(float64(opt.NS), float64(bd.counts["records"])), "ns"},
		{"streamopt.removed_ratio", removed, "ratio"},
		{"suite.run_ms", float64(bd.calls["suite.run"].NS) / 1e6 / ops, "ms"},
		{"server.handler_ms_p50", median(handler) / 1e6, "ms"},
		{"server.transport_ms_p50", median(transport), "ms"},
		{"server.response_kib", float64(bd.counts["response_bytes"]) / 1024 / ops, "KiB"},
		{"server.reject_ratio", float64(bd.counts["rejected"]) / ops, "ratio"},
		{"runtime.gc_per_op", traced.proc.gcCycles / float64(traced.ops), "count"},
		{"runtime.sys_ms_per_op", traced.proc.sysMS / float64(traced.ops), "ms"},
		{"runtime.gc_cpu_ms_per_op", traced.proc.gcCPUMS / float64(traced.ops), "ms"},
		{"fail_ratio", ratio(float64(counts.failed.Load()), all), "ratio"},
	}
	for _, m := range layerModules {
		r.figures = append(r.figures, figure{"self." + m + "_ms_per_op", float64(bd.self[m]) / 1e6 / ops, "ms"})
	}
	r.figures = append(r.figures,
		figure{"self.unattributed_ms_per_op", float64(bd.self["bench"]) / 1e6 / ops, "ms"},
		figure{"trace.op_ms_mean", float64(bd.calls["bench.op"].NS) / 1e6 / ops, "ms"},
		figure{"trace.untraced_cpu_ms_per_op", baseCPU, "ms"},
		figure{"trace.traced_cpu_ms_per_op", tracedCPU, "ms"},
		figure{"trace.overhead_cpu_ms_per_op", tracedCPU - baseCPU, "ms"},
	)
}

// layerModules are the modules the traced op time is attributed to: the
// repository's layers, plus the loopback HTTP transport and the client's
// decoding of the response on serve-small.
var layerModules = []string{"cmdstream", "device", "stats", "streamopt", "suite", "server", "net", "json"}

// transportMS pairs each round trip with the handler time inside it.
func transportMS(bd *breakdown) []float64 {
	rt, h := bd.durs["net.roundtrip"], bd.durs["server.handler"]
	if len(rt) != len(h) {
		return nil
	}
	out := make([]float64, len(rt))
	for i := range rt {
		out[i] = (rt[i] - h[i]) / 1e6
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes every client's spans as JSON lines.
func writeSpans(o options, clients []*client) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, c := range clients {
		for i := range c.tr.spans {
			if err := enc.Encode(c.tr.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// print writes the run record, every figure with its unit, and the JSON
// line.
func (r *result) print(w io.Writer) {
	o, m := r.opts, r.machine
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "machine nproc=%d gomaxprocs=%d go=%s cpu=%q\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.CPUModel)
	fmt.Fprintf(w, "run ops=%d ops_beyond_p90=%d attempted=%d failed=%d steal_share=%.4f\n",
		r.ops, r.p90Beyond, r.attempted, r.failed, r.steal)
	for _, e := range r.errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	// fail_ratio is a per-layer figure; sim_ms_per_op repeats exactly by
	// design, so it is printed for every run but kept out of the JSON line.
	extra := []figure{{"sim_ms_per_op", r.simPerOp, "ms-modelled"}}
	if !o.trace {
		extra = append(extra, figure{"fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio"})
	}
	for _, f := range append(r.figures, extra...) {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", f.name, f.value, f.unit)
	}
	for _, f := range r.unsteady {
		fmt.Fprintf(w, "%-36s %16.6f %s (wall time, printed only)\n", f.name, f.value, f.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]value{}}
	for _, f := range r.figures {
		v := f.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, out.Correct = 0, false
		}
		out.Metrics[f.name] = value{v, f.unit}
	}
	b, _ := json.Marshal(out) // plain structs of finite numbers always marshal
	fmt.Fprintln(w, string(b))
}
