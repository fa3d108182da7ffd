package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// writeSnapshot measures a quick toy-parameter baseline, rescales every
// entry by factor, and writes it to a temp file — a synthetic "committed"
// reference for the -check path.
func writeSnapshot(t *testing.T, factor float64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-baseline", "-", "-params", "toy", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	var report bench.BaselineReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	for i := range report.Entries {
		report.Entries[i].NsPerOp *= factor
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

// TestBenchtabFilter covers the -filter regexp: a doctored snapshot whose
// pair.* entries regressed catastrophically must fail an unfiltered check
// but pass when the filter excludes them — and a filter matching nothing
// is an error, not a silent pass.
func TestBenchtabFilter(t *testing.T) {
	path := writeSnapshot(t, 1)
	var report bench.BaselineReport
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	poisoned, kept := 0, ""
	for i := range report.Entries {
		if strings.HasPrefix(report.Entries[i].Name, "pair.") {
			report.Entries[i].NsPerOp /= 1000 // impossible reference → guaranteed regression
			poisoned++
		} else if kept == "" {
			report.Entries[i].NsPerOp *= 1000 // generous → cannot regress
			kept = report.Entries[i].Name
		}
	}
	if poisoned == 0 || kept == "" {
		t.Fatalf("snapshot shape unexpected: %d pair entries, kept=%q", poisoned, kept)
	}
	body, err = report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-check", path, "-params", "toy", "-quick"}, &out); err == nil {
		t.Fatalf("poisoned snapshot passed unfiltered:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-check", path, "-params", "toy", "-quick", "-filter", "^" + regexp.QuoteMeta(kept) + "$"}, &out); err != nil {
		t.Fatalf("filtered check failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-check", path, "-params", "toy", "-quick", "-filter", "^no-such-entry$"}, &out); err == nil {
		t.Fatal("filter matching nothing passed")
	}
	out.Reset()
	if err := run([]string{"-check", path, "-params", "toy", "-quick", "-filter", "("}, &out); err == nil {
		t.Fatal("invalid regexp accepted")
	}
}

// TestBenchtabServingBaseline measures the serving-layer entries through
// the -serving -filter path and then gates them with -check, exercising
// the auto re-measure of sem.token.*/cluster.token.* snapshot entries.
func TestBenchtabServingBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("serving fleet benchmark")
	}
	path := filepath.Join(t.TempDir(), "serving.json")
	var out bytes.Buffer
	if err := run([]string{"-baseline", path, "-params", "toy", "-quick", "-serving", "-filter", `^(cluster|sem)\.token\..*\.c32$`}, &out); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report bench.BaselineReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range report.Entries {
		names[e.Name] = true
		if e.NsPerOp <= 0 || e.Iters <= 0 {
			t.Fatalf("entry %s has no measurement: %+v", e.Name, e)
		}
	}
	for _, want := range []string{"sem.token.conn.c32", "sem.token.pooled.c32", "cluster.token.shard1.c32", "cluster.token.shard4.c32"} {
		if !names[want] {
			t.Fatalf("serving baseline missing %s (have %v)", want, names)
		}
	}
	if len(names) != 4 {
		t.Fatalf("filter leaked extra entries: %v", names)
	}

	// Gate against itself with a generous tolerance: same machine, moments
	// later — must pass, via the serving auto re-measure.
	out.Reset()
	if err := run([]string{"-check", path, "-params", "toy", "-quick", "-tolerance", "400", "-filter", `^(cluster|sem)\.token\..*\.c32$`}, &out); err != nil {
		t.Fatalf("serving self-check failed: %v\n%s", err, out.String())
	}
}

// TestBenchtabPaperRatios covers the part of a baseline only an 8-limb
// modulus has: the interleaved kernel ratios behind -check's ratio gates,
// and -filter applying to them. Values are asserted for sanity only —
// whether they meet the gates is -check's business, not a unit test's.
func TestBenchtabPaperRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size baseline")
	}
	var buf bytes.Buffer
	if err := run([]string{"-baseline", "-", "-params", "paper", "-quick", "-filter", `^fp\.(mul|square)`}, &buf); err != nil {
		t.Fatal(err)
	}
	var report bench.BaselineReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Entries) != 5 {
		t.Fatalf("entries = %+v, want fp.mul, fp.mul.generic, fp.mul.go, fp.square, fp.square.go", report.Entries)
	}
	if report.FpKernel != fp.Kernel() {
		t.Fatalf("fp_kernel = %q, want %q", report.FpKernel, fp.Kernel())
	}
	want := []string{"fp.mul.go ÷ fp.mul.generic", "fp.square.go ÷ fp.mul.go", "fp.mul ÷ fp.mul.go"}
	if len(report.Ratios) != len(want) {
		t.Fatalf("ratios = %+v, want %v", report.Ratios, want)
	}
	for i, r := range report.Ratios {
		// The assembly's gate is measured where the assembly runs and
		// recorded as not applicable, with no value, where it does not.
		if na := i == 2 && fp.Kernel() == "go"; r.NA != na {
			t.Errorf("ratio %d = %+v, want na = %v under kernel %q", i, r, na, fp.Kernel())
		} else if na && r.Value != 0 {
			t.Errorf("ratio %d = %+v carries a value with na set", i, r)
		} else if r.Name != want[i] || !na && (r.Value <= 0 || r.Value > 2) {
			t.Errorf("ratio %d = %+v, want %s in (0, 2]", i, r, want[i])
		}
	}

	filterEntries(&report, regexp.MustCompile(`^fp\.square`))
	if len(report.Entries) != 2 || len(report.Ratios) != 1 || report.Ratios[0].Name != want[1] {
		t.Fatalf("filter ^fp\\.square kept %+v / %+v", report.Entries, report.Ratios)
	}
}
