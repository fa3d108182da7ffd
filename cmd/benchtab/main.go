// Command benchtab regenerates every table and figure of EXPERIMENTS.md and
// prints them in the paper's terms.
//
// Usage:
//
//	benchtab -exp all            # everything at paper parameters
//	benchtab -exp t3 -quick      # one experiment, reduced iterations
//	benchtab -exp f1             # revocation sweep (simulated clock)
//	benchtab -baseline B.json    # snapshot primitive-op timings
//	benchtab -check B.json       # re-measure and fail on >15% regression or a broken ratio gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fp"
	"repro/internal/pairing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil { //cryptolint:nodeadline (offline benchmark over local stdio; no untrusted peers)
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: t1,t2,t3,t4,f1,f2,f3,ext or all (comma-separated)")
		params    = fs.String("params", "paper", "pairing parameter set: toy, fast, paper or paper_dense")
		quick     = fs.Bool("quick", false, "reduced iterations/sweeps for a fast pass")
		baseline  = fs.String("baseline", "", "write a primitive-op baseline snapshot (JSON) to this file ('-' for stdout) and exit")
		check     = fs.String("check", "", "re-measure the primitives and exit non-zero if any entry regressed vs this committed snapshot")
		tolerance = fs.Float64("tolerance", 15, "allowed per-entry slowdown (percent) for -check")
		filter    = fs.String("filter", "", "regexp restricting which entries -baseline writes and -check compares")
		serving   = fs.Bool("serving", false, "also measure the serving-layer transport entries (sem.token.*, cluster.token.*; -check infers this from the snapshot)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var filterRe *regexp.Regexp
	if *filter != "" {
		var err error
		if filterRe, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("-filter: %w", err)
		}
	}
	pp, err := pairing.ByName(*params)
	if err != nil {
		return err
	}
	if *check != "" {
		return runCheck(pp, *check, *tolerance, *quick, *serving, filterRe, out)
	}
	if *baseline != "" {
		iters, dur := 10, 200*time.Millisecond
		if *quick {
			iters, dur = 3, 20*time.Millisecond
		}
		report, err := bench.Baseline(pp, iters, dur)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if *serving {
			extra, err := bench.ServingEntries(servingWindow(*quick))
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			report.Entries = append(report.Entries, extra...)
		}
		filterEntries(report, filterRe)
		if len(report.Entries) == 0 {
			return fmt.Errorf("baseline: -filter %q matched no entries", *filter)
		}
		body, err := report.JSON()
		if err != nil {
			return err
		}
		if *baseline == "-" {
			_, err = out.Write(body)
			return err
		}
		return os.WriteFile(*baseline, body, 0o644)
	}
	return runExperiments(pp, *params, *exp, *quick, out)
}

// servingWindow is the per-entry measurement window for the serving-layer
// transports (they need longer windows than primitive ops: each sample is
// a full networked round trip at 32-way concurrency).
func servingWindow(quick bool) time.Duration {
	if quick {
		return 150 * time.Millisecond
	}
	return 1 * time.Second
}

// filterEntries drops report entries and ratios not matching re (nil keeps
// all).
func filterEntries(report *bench.BaselineReport, re *regexp.Regexp) {
	if re == nil {
		return
	}
	report.Entries = slices.DeleteFunc(report.Entries, func(e bench.BaselineEntry) bool { return !re.MatchString(e.Name) })
	report.Ratios = slices.DeleteFunc(report.Ratios, func(r bench.BaselineRatio) bool { return !re.MatchString(r.Name) })
}

// servingPrefixed reports whether any entry belongs to the serving-layer
// transport set (the ".c32" closed-loop entries), which -check must then
// re-measure. The plain sem.token.single/batch64 microbenches are part of
// the ordinary primitive baseline and do not trigger a fleet spin-up.
func servingPrefixed(entries []bench.BaselineEntry) bool {
	for _, e := range entries {
		if !strings.HasSuffix(e.Name, ".c32") {
			continue
		}
		if strings.HasPrefix(e.Name, "sem.token.") || strings.HasPrefix(e.Name, "cluster.token.") {
			return true
		}
	}
	return false
}

// runCheck re-measures the primitive baseline and compares it against a
// committed snapshot; a regression beyond the tolerance is a hard error so
// CI fails the build. -quick trades statistical weight for speed (use a
// generous tolerance with it: short timings are noisy). A -filter regexp
// restricts the comparison to matching snapshot entries, letting one
// snapshot file gate microbenches and serving-layer entries separately;
// serving-layer entries in the (filtered) snapshot are re-measured
// automatically. The same-run ratios of the fresh measurement (the
// paper-size gates: fp.mul.go ÷ fp.mul.generic ≤ 0.70, fp.square.go ÷
// fp.mul.go ≤ 0.92, fp.mul ÷ fp.mul.go ≤ 0.85, thibe.verify-batch5 ÷
// thibe.verify-single5 ≤ 0.65 (0.87 on the lanes), msm.5 ÷
// scalarmul.variable-wnaf ≤ 3.8, gtexp.multi4x5 ÷ gtexp.square-multiply ≤
// 12, wire.pairing-arg ÷ wire.g1 ≤ 0.50, gt.ingt ÷
// gtexp.square-multiply ≤ 0.45, cluster.decrypt.honest ÷
// cluster.decrypt.escalated ≤ 0.90, hash.to-g1.arg ÷ hash.to-g1 ≤ 0.55,
// fp.exp ÷ fp.square ≤ 850, ibe.token.scan ÷ pair.x ≤ 1.05,
// scalarmul.secret-comb ÷ scalarmul.variable-wnaf ≤ 0.55, fp.inv ÷ fp.mul ≤
// 120, on the assembly gf.mul ÷ fp.mul.go ≤ 2.55 and gt.ingt ÷ fp.mul.go
// ≤ 170, then the gates counted in F_p² products, whose bounds are per field
// kernel, and the rest of bench.kernelRatioGates, which has the reasons)
// are held to their bounds whatever the tolerance and whatever the snapshot
// records; -filter selects them by gate name. A gate that does not apply to
// the run — an assembly-only one such as fp.mul ÷ fp.mul.go where the
// assembly kernel is not selected, a lanes-only one such as pair ÷ gf.mul
// where the lane engine is not — is printed as n/a and not counted among
// those that hold.
func runCheck(pp *pairing.Params, path string, tolerance float64, quick, serving bool, filterRe *regexp.Regexp, out io.Writer) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	var ref bench.BaselineReport
	if err := json.Unmarshal(body, &ref); err != nil {
		return fmt.Errorf("check: parse %s: %w", path, err)
	}
	filterEntries(&ref, filterRe)
	if len(ref.Entries) == 0 {
		return fmt.Errorf("check: -filter matched no entries of %s", path)
	}
	iters, dur := 10, 200*time.Millisecond
	if quick {
		iters, dur = 3, 20*time.Millisecond
	}
	fresh, err := bench.Baseline(pp, iters, dur)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if serving || servingPrefixed(ref.Entries) {
		extra, err := bench.ServingEntries(servingWindow(quick))
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		fresh.Entries = append(fresh.Entries, extra...)
	}
	filterEntries(fresh, filterRe)
	regs, err := bench.CompareBaselines(&ref, fresh, tolerance)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	held := 0
	for _, r := range fresh.Ratios {
		if r.NA {
			fmt.Fprintf(out, "benchtab check: %s n/a (fp kernel %q)\n", r.Name, fresh.FpKernel)
			continue
		}
		held++
	}
	if len(regs) == 0 {
		fmt.Fprintf(out, "benchtab check: all entries within %.0f%% of %s", tolerance, path)
		if held > 0 {
			fmt.Fprintf(out, ", %d ratio gates hold", held)
		}
		fmt.Fprintf(out, " (fp kernel %q)\n", fresh.FpKernel)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(out, "REGRESSION", r)
	}
	return fmt.Errorf("check: %d entries regressed more than %.0f%% vs %s or broke a ratio gate", len(regs), tolerance, path)
}

// headerWriter writes its header before the first byte written through it,
// and never if nothing is.
type headerWriter struct {
	w      io.Writer
	header string
}

func (h *headerWriter) Write(p []byte) (int, error) {
	if h.header != "" {
		if _, err := io.WriteString(h.w, h.header); err != nil {
			return 0, err
		}
		h.header = ""
	}
	return h.w.Write(p)
}

func runExperiments(pp *pairing.Params, params, exp string, quick bool, out io.Writer) error {
	// What the timings below ran on, ahead of the first table.
	out = &headerWriter{w: out, header: fmt.Sprintf("benchtab: params %s, %s %s/%s, fp kernel %s\n\n",
		params, runtime.Version(), runtime.GOOS, runtime.GOARCH, fp.Kernel())}
	selected := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		selected[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := selected["all"]
	want := func(id string) bool { return all || selected[id] }

	var w *bench.World
	var err error
	needWorld := want("t2") || want("t3") || want("t4") || want("f3")
	if needWorld {
		rsaBits := 1024
		if quick {
			rsaBits = 512
		}
		w, err = bench.NewWorld(bench.WorldConfig{
			Pairing:     pp,
			RSABits:     rsaBits,
			StartServer: want("t2") || want("f3"),
		})
		if err != nil {
			return err
		}
		defer func() { _ = w.Close() }()
	}

	if want("t1") {
		tbl, err := bench.Sizes(bench.SizesConfig{Pairing: pp})
		if err != nil {
			return fmt.Errorf("t1: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	if want("t2") {
		tbl, err := bench.Communication(w)
		if err != nil {
			return fmt.Errorf("t2: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	if want("t3") {
		iters, dur := 20, 200*time.Millisecond
		if quick {
			iters, dur = 3, 20*time.Millisecond
		}
		tbl, err := bench.TimeOps(w, iters, dur)
		if err != nil {
			return fmt.Errorf("t3: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	if want("t4") {
		outcomes, err := bench.Attacks(w)
		if err != nil {
			return fmt.Errorf("t4: %w", err)
		}
		if err := bench.AttackTable(outcomes).Fprint(out); err != nil {
			return err
		}
	}
	if want("f1") {
		cfg := bench.DefaultRevocationConfig()
		if quick {
			cfg.Populations = []int{100}
			cfg.Revocations = 5
		}
		tbl, err := bench.Revocation(cfg)
		if err != nil {
			return fmt.Errorf("f1: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	if want("f2") {
		cfg := bench.DefaultThresholdConfig()
		if quick {
			cfg.Thresholds = []int{1, 2, 3}
			cfg.Iters = 1
		}
		// F2 runs at the "fast" set by default so the sweep stays tractable;
		// -params toy/fast overrides.
		if params != "paper" {
			cfg.Pairing = pp
		} else {
			fast, err := pairing.Fast()
			if err != nil {
				return err
			}
			cfg.Pairing = fast
		}
		cells, err := bench.Threshold(cfg)
		if err != nil {
			return fmt.Errorf("f2: %w", err)
		}
		if err := bench.ThresholdTable(cells, cfg.Pairing).Fprint(out); err != nil {
			return err
		}
	}
	if want("ext") {
		cfg := bench.ExtensionsConfig{}
		if quick {
			cfg.GMBits = 256
			cfg.RabinBits = 512
			cfg.Iters = 1
			cfg.Pairing = pp
		}
		tbl, err := bench.Extensions(cfg)
		if err != nil {
			return fmt.Errorf("ext: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	if want("f3") {
		cfg := bench.DefaultThroughputConfig()
		if quick {
			cfg.Clients = []int{1, 4}
			cfg.Duration = 200 * time.Millisecond
		}
		tbl, err := bench.Throughput(w, cfg)
		if err != nil {
			return fmt.Errorf("f3: %w", err)
		}
		if err := tbl.Fprint(out); err != nil {
			return err
		}
	}
	return nil
}
