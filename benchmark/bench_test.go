package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// quickOpts are the self-test sizes: toy parameters, small populations, a
// one-second measured phase.
func quickOpts(t *testing.T, trace int) *options {
	return &options{seed: 1, seconds: 1, trace: trace, quick: true}
}

// lastLine parses the result line a driver reads.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	return obj
}

// TestResultSchema runs every workload at self-test size, untraced and
// traced, and checks the result line: exactly the four keys, exactly the
// end-to-end (or per-layer) metric names with their units, no failed op.
func TestResultSchema(t *testing.T) {
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			t.Run(w.name+map[int]string{0: "/plain", 1: "/traced"}[trace], func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				if code := runSelected([]workload{w}, quickOpts(t, trace), &out, io.Discard); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				obj := lastLine(t, out.String())
				if len(obj) != 4 {
					t.Fatalf("result has keys %v, want exactly correct, attempted, failed, metrics", obj)
				}
				var res result
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok {
						t.Errorf("metric %s missing", s.name)
					} else if m.Unit != s.unit {
						t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
					} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s is %v", s.name, m.Value)
					} else if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", s.name, m.Value)
					}
				}
				for _, s := range specs {
					if !strings.Contains(out.String(), s.name) {
						t.Errorf("report does not print %s", s.name)
					}
				}
			})
		}
	}
}

// sabotaged wraps a workload so that its deployment is tampered with after
// set-up.
func sabotaged(w workload, tamper func(t *testing.T, d *semDeployment), t *testing.T) workload {
	build := w.build
	w.build = func(g *gen, o *options, instrument bool, tr *tracer) (deployment, error) {
		d, err := build(g, o, instrument, tr)
		if err == nil {
			tamper(t, d.(*semDeployment))
		}
		return d, err
	}
	return w
}

// TestFailuresAreCounted proves the oracle and the failure accounting: a
// SEM that answers with a wrong token, and an op against a revoked
// identity, each count as failed, make the result incorrect and the exit
// code non-zero.
func TestFailuresAreCounted(t *testing.T) {
	cases := map[string]func(t *testing.T, d *semDeployment){
		"corrupted oracle": func(_ *testing.T, d *semDeployment) {
			for _, tok := range d.tokens {
				tok[len(tok)-1] ^= 1 // now every genuine token is "wrong"
			}
		},
		"revoked identity": func(t *testing.T, d *semDeployment) {
			if err := d.sc.Revoke(d.ids[d.spec.hot-1], "self-test"); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			// Tamper after warm-up would need a hook into the run; tampering
			// at build time makes the warm-up fail instead, which must also
			// end the run with a non-zero exit code and no result line.
			var out, errOut bytes.Buffer
			w := sabotaged(workloads[0], tamper, t)
			if code := runSelected([]workload{w}, quickOpts(t, 0), &out, &errOut); code == 0 {
				t.Fatalf("exit code 0 with a sabotaged deployment\n%s", out.String())
			}
			if strings.Contains(out.String(), `"correct":true`) {
				t.Fatalf("a sabotaged run printed a correct result\n%s", out.String())
			}

			// The load phase itself: every (or the revoked share of) ops fail
			// and are counted, none is silently dropped.
			o := quickOpts(t, 0)
			d, err := workloads[0].build(newGen(o.seed), o, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			if err := d.warm(); err != nil {
				t.Fatal(err)
			}
			tamper(t, d.(*semDeployment))
			load := o.measure(d, 0.25, &hostMeter{slice: time.Millisecond})
			if load.failed == 0 || len(load.errs) == 0 {
				t.Fatalf("sabotaged load counted %d failures of %d ops", load.failed, load.attempted)
			}
			if load.attempted != load.failed+int64(len(load.samples)) {
				t.Fatalf("attempted %d != failed %d + ok %d", load.attempted, load.failed, len(load.samples))
			}
			res := &result{Attempted: load.attempted, Failed: load.failed}
			if res.finish(); res.Correct {
				t.Fatal("a run with failed ops was marked correct")
			}
		})
	}
}

// TestSameSeedSameInputs: one seed generates byte-identical inputs on every
// run, another seed different ones.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			fingerprint := func(seed int64) []byte {
				o := quickOpts(t, 0)
				g := newGen(seed)
				d, err := w.build(g, o, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				d.close()
				return g.fingerprint()
			}
			a, b, c := fingerprint(1), fingerprint(1), fingerprint(2)
			if !bytes.Equal(a, b) {
				t.Error("the same seed generated different inputs")
			}
			if bytes.Equal(a, c) {
				t.Error("different seeds generated the same inputs")
			}
		})
	}
}

// TestCountMetricsRepeat: allocs_per_op and wire_bytes_per_op are counts,
// not timings; two back-to-back runs agree within 1 %.
func TestCountMetricsRepeat(t *testing.T) {
	measure := func() map[string]metricValue {
		res, err := runWorkload(workloads[0], quickOpts(t, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := measure(), measure()
	for _, name := range []string{"allocs_per_op", "wire_bytes_per_op"} {
		if dev := math.Abs(a[name].Value-b[name].Value) / a[name].Value; dev > 0.01 {
			t.Errorf("%s: %v then %v (%.2f%% apart, want within 1%%)", name, a[name].Value, b[name].Value, 100*dev)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the names, units, directions and bounds the program uses.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better || g.Bound != s.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, s)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
}
