package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke is a run of a few ops.
func smoke(workload string, seed int64, trace bool) options {
	return options{workload: workload, seed: seed, seconds: 0.2, trace: trace, setups: 1, minOps: 2}
}

// jsonLine prints r and decodes its last line.
func jsonLine(t *testing.T, r *result) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	r.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("JSON line keys: %v", top)
	}
	return top
}

// TestSmoke runs a few ops of every workload, untraced and traced, and
// checks that every metric BENCHMARK.json names appears with its unit and
// that every op verified.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			o := smoke(w.Name, 1, trace)
			o.traceDir = t.TempDir()
			r, err := bench(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			top := jsonLine(t, r)
			if string(top["correct"]) != "true" || r.failed != 0 {
				t.Errorf("%s trace=%t: %d of %d ops failed: %v", w.Name, trace, r.failed, r.attempted, r.errors)
			}
			var got map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}
			if err := json.Unmarshal(top["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, m := range s.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range s.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if g, ok := got[name]; !ok || g.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.Name, trace, name, g, unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
		}
	}
}

// TestCorruptReferenceFails checks that verification catches a wrong
// output: with one reference altered, the ops that check it fail.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloads {
		o := smoke(w.name, 1, false)
		o.corrupt = true
		r, err := bench(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed == 0 || string(jsonLine(t, r)["correct"]) != "false" {
			t.Errorf("%s: corrupted reference gave %d failures of %d", w.name, r.failed, r.attempted)
		}
	}
}

// TestSeedsAgreeOnModelledTime checks that the seed only reorders work:
// two seeds give the same modelled time per op.
func TestSeedsAgreeOnModelledTime(t *testing.T) {
	for _, w := range workloads {
		var sims []float64
		for _, seed := range []int64{1, 2} {
			o := smoke(w.name, seed, false)
			o.minOps = 4 // serve-small: both session kinds on each client
			r, err := bench(o)
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, r.simPerOp)
		}
		if sims[0] != sims[1] || sims[0] <= 0 {
			t.Errorf("%s: sim_ms_per_op %v across seeds", w.name, sims)
		}
	}
}
