package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mib = 1 << 20

// Runtime counters read at the edges of a measured window and, for heap
// size, at every op completion. runtime/metrics reads them without stopping
// the world, so sampling per op is cheap.
const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricHeapBytes  = "/memory/classes/heap/objects:bytes"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// procSample is the process state a window is measured between.
type procSample struct {
	wall          time.Time
	userNS, sysNS int64
	allocBytes    uint64
	gcCycles      uint64
	gcCPUSeconds  float64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: metricAllocBytes}, {Name: metricGCCycles}, {Name: metricGCCPU}}
	metrics.Read(s)
	return procSample{
		wall:         time.Now(),
		userNS:       ru.Utime.Nano(),
		sysNS:        ru.Stime.Nano(),
		allocBytes:   s[0].Value.Uint64(),
		gcCycles:     s[1].Value.Uint64(),
		gcCPUSeconds: s[2].Value.Float64(),
	}
}

// procDelta is what a window cost the process.
type procDelta struct {
	wallS         float64
	userMS, sysMS float64
	allocBytes    float64
	gcCycles      float64
	gcCPUMS       float64
}

func deltaProc(a, b procSample) procDelta {
	return procDelta{
		wallS:      b.wall.Sub(a.wall).Seconds(),
		userMS:     float64(b.userNS-a.userNS) / 1e6,
		sysMS:      float64(b.sysNS-a.sysNS) / 1e6,
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcCPUMS:    (b.gcCPUSeconds - a.gcCPUSeconds) * 1e3,
	}
}

// runtimeValue reads one runtime/metrics value. Each client has its own,
// so clients never share the sample slice.
type runtimeValue []metrics.Sample

func newRuntimeValue(name string) runtimeValue { return runtimeValue{{Name: name}} }

func (v runtimeValue) read() uint64 {
	metrics.Read(v)
	return v[0].Value.Uint64()
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// value with at least a q share of the samples at or below it. With no
// samples (a layer the workload does not call) it is 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// cpuTimes reads the machine-wide CPU time counters from /proc/stat: the
// sum of every state and the hypervisor steal share of it.
func cpuTimes() (total, steal float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of the sum.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// machine describes the host a run measured on.
type machine struct {
	NumCPU     int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
}

func describeMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}
