package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/fp"
)

func TestBenchtabQuickSubset(t *testing.T) {
	var out bytes.Buffer
	// T1 + T4 + F1 at toy parameters keeps the test fast while covering a
	// size table, an attack run and a simulation sweep.
	if err := run([]string{"-exp", "t1,t4,f1", "-params", "toy", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if header := "benchtab: params toy, "; !strings.HasPrefix(s, header) || !strings.Contains(strings.SplitN(s, "\n", 2)[0], "fp kernel "+fp.Kernel()) {
		t.Errorf("output does not open with the %q header naming the fp kernel:\n%s", header, s)
	}
	for _, want := range []string{"== T1", "== T4", "== F1", "SYSTEM BROKEN", "contained", "sem"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestBenchtabF2Quick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "f2", "-params", "toy", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== F2") {
		t.Errorf("missing F2 table:\n%s", out.String())
	}
}

// toyBaseline is one quick toy-parameter baseline, written by -baseline to
// a file and measured once for every test that needs a reference: each
// measurement also loads both cores with the serving entries' 32 callers.
var toyBaseline struct {
	once sync.Once
	body []byte
	err  error
}

func toySnapshot(t *testing.T) bench.BaselineReport {
	t.Helper()
	toyBaseline.once.Do(func() {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if toyBaseline.err = run([]string{"-baseline", path, "-params", "toy", "-quick"}, io.Discard); toyBaseline.err == nil {
			toyBaseline.body, toyBaseline.err = os.ReadFile(path)
		}
	})
	if toyBaseline.err != nil {
		t.Fatal(toyBaseline.err)
	}
	var report bench.BaselineReport
	if err := json.Unmarshal(toyBaseline.body, &report); err != nil {
		t.Fatal(err)
	}
	return report
}

// writeSnapshot rescales every entry of the toy baseline, its time and its
// allocations, by factor and writes it to a temp file — a synthetic
// "committed" reference for the -check path. (journal.append.group16's
// allocations move with how its writers happen to coalesce, by up to a
// fifth between two runs of one test binary, so an unscaled column would
// make a generous reference fail the allocation gate.)
func writeSnapshot(t *testing.T, factor float64) string {
	t.Helper()
	report := toySnapshot(t)
	for i, e := range report.Entries {
		report.Entries[i].NsPerOp *= factor
		if e.AllocsPerOp != nil {
			a := *e.AllocsPerOp * factor
			report.Entries[i].AllocsPerOp = &a
		}
	}
	body, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchtabCheckFailsOnRegression(t *testing.T) {
	// A reference 1000× faster than the machine can possibly run makes the
	// fresh measurement an unambiguous "regression".
	path := writeSnapshot(t, 1.0/1000)
	var out bytes.Buffer
	err := run([]string{"-check", path, "-params", "toy", "-quick"}, &out)
	if err == nil {
		t.Fatalf("doctored snapshot passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("no regression lines printed:\n%s", out.String())
	}
}

func TestBenchtabCheckPassesWithGenerousTolerance(t *testing.T) {
	// A reference 1000× slower than reality cannot regress at any tolerance.
	path := writeSnapshot(t, 1000)
	var out bytes.Buffer
	if err := run([]string{"-check", path, "-params", "toy", "-quick"}, &out); err != nil {
		t.Fatalf("check failed against a generous snapshot: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all entries within") {
		t.Fatalf("missing pass summary:\n%s", out.String())
	}
}

func TestBenchtabCheckGuardsParamsMismatch(t *testing.T) {
	path := writeSnapshot(t, 1) // snapshot taken at toy parameters
	var out bytes.Buffer
	if err := run([]string{"-check", path, "-params", "fast", "-quick"}, &out); err == nil {
		t.Fatal("cross-parameter check accepted")
	}
}

func TestBenchtabCheckMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-check", "/nonexistent.json", "-params", "toy", "-quick"}, &out); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestBenchtabUnknownParams(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-params", "bogus"}, &out); err == nil {
		t.Fatal("unknown parameter set accepted")
	}
}

func TestBenchtabUnknownExperimentIsNoop(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "t9", "-params", "toy"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output for unknown experiment: %q", out.String())
	}
}

// TestBenchtabServingBaseline: a toy baseline holds the four serving-layer
// entries beside the primitives, and -check against it passes — the serving
// entries re-measured on the same machine moments later — and names them.
func TestBenchtabServingBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("serving fleet benchmark")
	}
	names := map[string]bool{}
	for _, e := range toySnapshot(t).Entries {
		names[e.Name] = true
		if e.NsPerOp <= 0 || e.Iters <= 0 {
			t.Fatalf("entry %s has no measurement: %+v", e.Name, e)
		}
	}
	serving := []string{"sem.token.conn.c32", "sem.token.pooled.c32", "cluster.token.shard1.c32", "cluster.token.shard4.c32"}
	for _, want := range append([]string{"fp.mul", "pair"}, serving...) {
		if !names[want] {
			t.Fatalf("baseline missing %s (have %v)", want, names)
		}
	}

	var out bytes.Buffer
	if err := run([]string{"-check", writeSnapshot(t, 1), "-params", "toy", "-quick", "-tolerance", "400"}, &out); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out.String())
	}
	for _, want := range serving {
		if !strings.Contains(out.String(), want) {
			t.Errorf("check output does not name the serving entry %s:\n%s", want, out.String())
		}
	}
}

// TestBenchtabPaperRatios covers the part of a baseline only an 8-limb
// modulus has: the interleaved kernel ratios behind -check's ratio gates.
// Values are asserted for sanity only — whether they meet the gates is
// -check's business, not a unit test's.
func TestBenchtabPaperRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size baseline")
	}
	var buf bytes.Buffer
	if err := run([]string{"-baseline", "-", "-params", "paper", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	var report bench.BaselineReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.FpKernel != fp.Kernel() {
		t.Fatalf("fp_kernel = %q, want %q", report.FpKernel, fp.Kernel())
	}
	ratios := map[string]bench.BaselineRatio{}
	for _, r := range report.Ratios {
		ratios[r.Name] = r
	}
	for i, name := range []string{"fp.mul.go ÷ fp.mul.generic", "fp.square.go ÷ fp.mul.go", "fp.mul ÷ fp.mul.go"} {
		r, ok := ratios[name]
		// The assembly's gate is measured where the assembly runs and
		// recorded as not applicable, with no value, where it does not.
		if na := i == 2 && fp.Kernel() == "go"; !ok || r.NA != na {
			t.Errorf("ratio %s = %+v (present %v), want na = %v under kernel %q", name, r, ok, na, fp.Kernel())
		} else if na && r.Value != 0 {
			t.Errorf("ratio %+v carries a value with na set", r)
		} else if !na && (r.Value <= 0 || r.Value > 2) {
			t.Errorf("ratio %+v, want a value in (0, 2]", r)
		}
	}
}
