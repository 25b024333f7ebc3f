package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"pimeval/benchmarks/suite"
	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/server"
	"pimeval/internal/streamopt"
	"pimeval/pim"

	_ "pimeval/benchmarks/all" // registers every suite benchmark
)

// workload is one closed-loop traffic mix. Each client runs its next op
// only after the previous one has completed.
type workload struct {
	name    string
	clients int
	setup   func() (*instance, error)
}

// The workloads, in the order BENCHMARK.json lists them. Why each exists is
// in README.md.
var workloads = []workload{
	{name: "replay-model", clients: 1, setup: setupReplayModel},
	{name: "replay-functional", clients: 1, setup: setupReplayFunctional},
	{name: "serve-small", clients: 2, setup: setupServeSmall},
	{name: "capture-model", clients: 1, setup: setupCaptureModel},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// item is one unit of work inside an op — a stream to replay or submit, or
// a benchmark to capture — with the reference its output must match.
type item struct {
	name  string
	enc   []byte          // encoded stream (replay, serve)
	bench suite.Benchmark // benchmark to capture
	cfg   suite.Config    // capture configuration
	want  reference
}

// reference is an item's expected output, computed once during set-up so
// that verifying an op is only comparisons.
type reference struct {
	metrics server.Metrics
	report  string
	csv     []byte
	records int64
	enc     []byte           // capture: the encoded stream
	opt     streamopt.Result // capture: the optimizer's counters
}

// simMS is the modelled time of the run m describes.
func simMS(m server.Metrics) float64 { return m.KernelMS + m.HostMS + m.CopyMS }

// instance is a workload after set-up.
type instance struct {
	items []item
	// bundle makes every op run all items, in an order the client's seeded
	// generator permutes; otherwise an op is one item, drawn from seeded
	// permutations of the items so each kind runs equally often.
	bundle bool
	// run executes one item for client c and verifies it, returning the
	// modelled milliseconds it reported.
	run func(c *client, it *item) (float64, error)
	// probe, when set, replays the items' streams locally for the traced
	// run's decode and device figures; the workload's own ops make those
	// calls inside the server, where the benchmark cannot time them.
	probe bool
	// notes are set-up findings every run prints.
	notes []string
	close func() error
}

func noClose() error { return nil }

// client is one closed-loop client's state. Buffers are reused across ops
// so the harness adds little to the allocation it measures.
type client struct {
	rng    *rand.Rand
	tr     *tracer
	allocs runtimeValue // bytes allocated so far
	heap   runtimeValue // bytes of heap objects in use
	buf    bytes.Buffer
	csv    bytes.Buffer
	queue  []int
	opID   int64
	sims   []float64 // the last verified modelled time of each item
}

// op runs the client's next op.
func (inst *instance) op(c *client) error {
	if inst.bundle {
		for _, i := range c.rng.Perm(len(inst.items)) {
			if err := inst.runItem(c, i); err != nil {
				return err
			}
		}
		return nil
	}
	if len(c.queue) == 0 {
		c.queue = c.rng.Perm(len(inst.items))
	}
	i := c.queue[0]
	c.queue = c.queue[1:]
	return inst.runItem(c, i)
}

func (inst *instance) runItem(c *client, i int) error {
	it := &inst.items[i]
	sim, err := inst.run(c, it)
	if err != nil {
		return fmt.Errorf("%s: %w", it.name, err)
	}
	c.sims[i] = sim
	return nil
}

// encodeBinary encodes a recorded stream in the binary wire format.
func encodeBinary(s *cmdstream.Stream) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, cmdstream.FormatBinary); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func metricsOf(d *device.Device) server.Metrics {
	st := d.Stats()
	b := st.Breakdown()
	c := st.Copies()
	return server.Metrics{
		KernelMS: b.Kernel.TimeMS(), HostMS: b.Host.TimeMS(), CopyMS: b.Copy.TimeMS(),
		KernelMJ: b.Kernel.EnergyMJ(), HostMJ: b.Host.EnergyMJ(), CopyMJ: b.Copy.EnergyMJ(),
		HostToDeviceBytes:   c.HostToDeviceBytes,
		DeviceToHostBytes:   c.DeviceToHostBytes,
		DeviceToDeviceBytes: c.DeviceToDeviceBytes,
	}
}

func fromPim(m pim.Metrics) server.Metrics {
	return server.Metrics{
		KernelMS: m.KernelMS, HostMS: m.HostMS, CopyMS: m.CopyMS,
		KernelMJ: m.KernelMJ, HostMJ: m.HostMJ, CopyMJ: m.CopyMJ,
		HostToDeviceBytes:   m.HostToDeviceBytes,
		DeviceToHostBytes:   m.DeviceToHostBytes,
		DeviceToDeviceBytes: m.DeviceToDeviceBytes,
	}
}

// replayed is what a local replay of one stream produced.
type replayed struct {
	metrics server.Metrics
	report  string
	csv     []byte // aliases the client's buffer until its next replay
}

// replayStream decodes enc and replays it on a fresh device through the
// calls pim.ReplaySource and the server make: open the source, build the
// device from its header, run cmdstream.ReplaySourceOpts, then render the
// statistics CSV and the report.
func replayStream(c *client, enc []byte) (replayed, error) {
	tr := c.tr
	s := tr.begin("cmdstream.open")
	src, err := cmdstream.OpenSource(bytes.NewReader(enc))
	tr.end(s)
	if err != nil {
		return replayed{}, err
	}
	defer src.Close()
	s = tr.begin("device.new")
	d, err := device.NewFromHeader(src.Header(), 1)
	tr.end(s)
	if err != nil {
		return replayed{}, err
	}
	s = tr.begin("cmdstream.replay")
	if tr == nil {
		err = cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{})
	} else {
		ts := newTimedSource(src, c.allocs)
		x := newTimedExec(d, ts)
		err = cmdstream.ReplaySourceOpts(x, ts, cmdstream.ReplayOptions{})
		tr.aggs(s, ts.next, ts.payload, x.exec, x.h2d)
		tr.count("records", ts.next.Count)
		tr.count("bytes", int64(len(enc)))
	}
	tr.end(s)
	if err != nil {
		return replayed{}, err
	}
	c.csv.Reset()
	s = tr.begin("stats.csv")
	err = d.Stats().WriteCSV(&c.csv)
	tr.end(s)
	if err != nil {
		return replayed{}, err
	}
	s = tr.begin("device.report")
	report := d.ReportString()
	tr.end(s)
	return replayed{metrics: metricsOf(d), report: report, csv: c.csv.Bytes()}, nil
}

var errMismatch = errors.New("output differs from the set-up reference")

// runReplay replays one item and checks it against its reference.
func runReplay(c *client, it *item) (float64, error) {
	r, err := replayStream(c, it.enc)
	if err != nil {
		return 0, err
	}
	if r.metrics != it.want.metrics || r.report != it.want.report || !bytes.Equal(r.csv, it.want.csv) {
		return 0, errMismatch
	}
	return simMS(r.metrics), nil
}

// recordReplayItems records each benchmark on each target, encodes the
// stream, and sets the reference its replays must reproduce: the outputs
// of a first replay. That replay is also checked against the recording
// run; a stream that does not carry everything its run's statistics show
// is listed in the returned notes, which every run prints.
func recordReplayItems(names []string, targets []pim.Target, functional bool) ([]item, []string, error) {
	c := newClient(0, 0, 0)
	var items []item
	var notes []string
	for _, name := range names {
		b, err := suite.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range targets {
			stream, res, err := suite.RecordStream(b, suite.Config{
				Target: t, Functional: functional, Workers: 1, EmitReport: true})
			if err != nil {
				return nil, nil, fmt.Errorf("record %s on %s: %w", name, t, err)
			}
			if functional && !res.Verified {
				return nil, nil, fmt.Errorf("record %s on %s: run failed its host check", name, t)
			}
			enc, err := encodeBinary(stream)
			if err != nil {
				return nil, nil, err
			}
			it := item{name: name + "/" + t.String(), enc: enc}
			r, err := replayStream(c, enc)
			if err != nil {
				return nil, nil, fmt.Errorf("reference replay of %s: %w", it.name, err)
			}
			if rec := fromPim(res.Metrics); r.metrics != rec || r.report != res.Report {
				notes = append(notes, fmt.Sprintf("%s: replay differs from its recording run "+
					"(modelled %.6f ms vs %.6f ms, h2d %d vs %d bytes)",
					it.name, simMS(r.metrics), simMS(rec), r.metrics.HostToDeviceBytes, rec.HostToDeviceBytes))
			}
			it.want = reference{metrics: r.metrics, report: r.report,
				csv: bytes.Clone(r.csv), records: int64(len(stream.Records))}
			items = append(items, it)
		}
	}
	return items, notes, nil
}

func suiteNames() []string {
	var names []string
	for _, b := range suite.All() {
		names = append(names, b.Info().Name)
	}
	return names
}

// setupReplayModel: the model-only paper-size stream of every suite
// benchmark on every digital target; one op replays them all.
func setupReplayModel() (*instance, error) {
	items, notes, err := recordReplayItems(suiteNames(), pim.AllTargets, false)
	if err != nil {
		return nil, err
	}
	return &instance{items: items, notes: notes, bundle: true, run: runReplay, close: noClose}, nil
}

// functionalNames are the replay-functional streams: benchmarks whose
// functional replay is dominated by element kernels, not payload bytes.
var functionalNames = []string{"kmeans", "radixsort", "histogram", "aes-dec", "trianglecount"}

func setupReplayFunctional() (*instance, error) {
	items, notes, err := recordReplayItems(functionalNames, []pim.Target{pim.Fulcrum}, true)
	if err != nil {
		return nil, err
	}
	return &instance{items: items, notes: notes, bundle: true, run: runReplay, close: noClose}, nil
}

// serveNames are the serve-small sessions: two functional streams of the
// same size, so session latency has one mode.
var serveNames = []string{"vecadd", "axpy"}

// setupServeSmall records the session streams, computes each one's
// expected response by a local replay (as pimload -verify does), and
// starts an in-process server on a loopback listener.
func setupServeSmall() (*instance, error) {
	items, notes, err := recordReplayItems(serveNames, []pim.Target{pim.Fulcrum}, true)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Devices: serveClients, Workers: 1})
	times := &handlerTimes{h: srv, byOp: map[int64][2]int64{}}
	hs := &http.Server{Handler: times}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	hc := &http.Client{Transport: transport}
	base := "http://" + l.Addr().String() + "/v1/submit"
	st := &serveTarget{http: hc, url: base, times: times}
	inst := &instance{items: items, notes: notes, probe: true, run: st.run}
	inst.close = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Drain(ctx)
		if serr := hs.Shutdown(ctx); err == nil {
			err = serr
		}
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		transport.CloseIdleConnections()
		return err
	}
	return inst, nil
}

// serveClients is serve-small's client count and the server's device
// slots: one per vCPU of the 2-vCPU machine the benchmark is tuned on.
const serveClients = 2

// errStatus is a session answered with a status other than 200.
type errStatus int

func (e errStatus) Error() string { return "status " + strconv.Itoa(int(e)) }

// serveTarget is the server serve-small's clients submit to.
type serveTarget struct {
	http  *http.Client
	url   string
	times *handlerTimes
}

// run submits one session and checks the response field for field against
// the local replay made during set-up.
func (st *serveTarget) run(c *client, it *item) (float64, error) {
	tr := c.tr
	s := tr.begin("net.roundtrip")
	req, err := http.NewRequest(http.MethodPost, st.url, bytes.NewReader(it.enc))
	if err != nil {
		tr.end(s)
		return 0, err
	}
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(c.opID, 10))
	}
	resp, err := st.http.Do(req)
	if err != nil {
		tr.end(s)
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if tr != nil {
		if start, end, ok := st.times.take(c.opID); ok {
			tr.child("server.handler", start, end)
		}
	}
	tr.end(s)
	if err != nil {
		return 0, err
	}
	tr.count("bytes", int64(len(it.enc)))
	tr.count("response_bytes", int64(c.buf.Len()))
	if resp.StatusCode != http.StatusOK {
		tr.count("rejected", 1)
		return 0, errStatus(resp.StatusCode)
	}
	var sr server.SubmitResult
	s = tr.begin("json.decode")
	err = json.Unmarshal(c.buf.Bytes(), &sr)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	tr.count("records", sr.Records)
	if sr.Metrics != it.want.metrics || sr.Report != it.want.report ||
		sr.CommandCSV != string(it.want.csv) || sr.Records != it.want.records {
		return 0, errMismatch
	}
	return simMS(sr.Metrics), nil
}

// setupCaptureModel captures every suite benchmark model-only at paper
// size on every digital target once; that first capture is the reference
// every later one must reproduce byte for byte.
func setupCaptureModel() (*instance, error) {
	c := newClient(0, 0, 0)
	var items []item
	for _, b := range suite.All() {
		for _, t := range pim.AllTargets {
			it := item{name: b.Info().Name + "/" + t.String(), bench: b,
				cfg: suite.Config{Target: t, Workers: 1}}
			res, opt, err := capture(c, &it)
			if err != nil {
				return nil, fmt.Errorf("capture %s: %w", it.name, err)
			}
			it.want = reference{metrics: fromPim(res.Metrics), enc: bytes.Clone(c.buf.Bytes()), opt: opt}
			items = append(items, it)
		}
	}
	return &instance{items: items, bundle: true, run: runCapture, close: noClose}, nil
}

// capture records the item's benchmark through the pim API (lowering, cost
// models, host baselines), encodes the stream into c.buf, and optimizes it.
func capture(c *client, it *item) (suite.Result, streamopt.Result, error) {
	tr := c.tr
	s := tr.begin("suite.run")
	stream, res, err := suite.RecordStream(it.bench, it.cfg)
	tr.end(s)
	if err != nil {
		return res, streamopt.Result{}, err
	}
	c.buf.Reset()
	s = tr.begin("cmdstream.encode")
	err = stream.EncodeFormat(&c.buf, cmdstream.FormatBinary)
	tr.end(s)
	if err != nil {
		return res, streamopt.Result{}, err
	}
	s = tr.begin("streamopt.optimize")
	opt, or, err := streamopt.Optimize(stream, streamopt.All())
	tr.end(s)
	if err != nil {
		return res, or, err
	}
	tr.count("records", int64(len(stream.Records)))
	tr.count("bytes", int64(c.buf.Len()))
	tr.count("optimized_records", int64(len(opt.Records)))
	return res, or, nil
}

func runCapture(c *client, it *item) (float64, error) {
	res, or, err := capture(c, it)
	if err != nil {
		return 0, err
	}
	m := fromPim(res.Metrics)
	if m != it.want.metrics || or != it.want.opt || !bytes.Equal(c.buf.Bytes(), it.want.enc) {
		return 0, errMismatch
	}
	return simMS(m), nil
}
