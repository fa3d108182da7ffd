// Command benchtab regenerates every table and figure of EXPERIMENTS.md and
// prints them in the paper's terms.
//
// Usage:
//
//	benchtab -exp all            # everything at paper parameters
//	benchtab -exp t3 -quick      # one experiment, reduced iterations
//	benchtab -exp f1             # revocation sweep (simulated clock)
//	benchtab -baseline B.json    # snapshot the primitives' and the serving entries' timings
//	benchtab -check B.json       # re-measure; fail on >15% regression, a broken ratio gate or a stale snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
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
		baseline  = fs.String("baseline", "", "write a baseline snapshot (JSON) of the primitives and the serving entries to this file ('-' for stdout) and exit")
		check     = fs.String("check", "", "re-measure the baseline and exit non-zero if any entry regressed vs this committed snapshot, or it is stale")
		tolerance = fs.Float64("tolerance", 15, "allowed per-entry slowdown (percent) for -check")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pp, err := pairing.ByName(*params)
	if err != nil {
		return err
	}
	if *check == "" && *baseline == "" {
		return runExperiments(pp, *params, *exp, *quick, out)
	}
	var ref *bench.BaselineReport
	if *check != "" {
		if ref, err = readSnapshot(*check, pp); err != nil {
			return fmt.Errorf("check: %w", err)
		}
	}
	// -baseline and -check measure from this one call, so a kernel that
	// keeps scratch on the stack runs at the same placement in both.
	fresh, serving, err := measureBaseline(pp, *quick)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	if ref != nil {
		return compare(ref, fresh, serving, *check, *tolerance, out)
	}
	body, err := fresh.JSON()
	if err != nil {
		return err
	}
	if *baseline == "-" {
		_, err = out.Write(body)
		return err
	}
	return os.WriteFile(*baseline, body, 0o644)
}

// measureBaseline times the primitives at pp and the serving entries
// (bench.ServingEntries, on a toy-parameter fleet whatever pp is) into one
// report, and returns the serving entries apart as well. They need longer
// windows than a primitive: each sample is a networked round trip at 32-way
// concurrency.
func measureBaseline(pp *pairing.Params, quick bool) (*bench.BaselineReport, []bench.BaselineEntry, error) {
	iters, dur, window := 10, 200*time.Millisecond, time.Second
	if quick {
		iters, dur, window = 3, 20*time.Millisecond, 150*time.Millisecond
	}
	report, err := bench.Baseline(pp, iters, dur)
	if err != nil {
		return nil, nil, err
	}
	serving, err := bench.ServingEntries(window)
	if err != nil {
		return nil, nil, err
	}
	report.Entries = append(report.Entries, serving...)
	return report, serving, nil
}

// readSnapshot reads a committed baseline snapshot for -check, refusing one
// of other parameters before anything is measured: its entries compare with
// nothing.
func readSnapshot(path string, pp *pairing.Params) (*bench.BaselineReport, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref bench.BaselineReport
	if err := json.Unmarshal(body, &ref); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if ref.Params != pp.Name() {
		return nil, fmt.Errorf("%s holds %q entries, -params is %q", path, ref.Params, pp.Name())
	}
	return &ref, nil
}

// compare compares a fresh baseline with the committed snapshot ref read from
// path; a regression beyond the tolerance, or a snapshot that does not hold
// exactly the entries the baseline measures, is a hard error so CI fails the
// build. -quick trades statistical weight for speed (use a generous
// tolerance with it: short timings are noisy). The fresh run's ratio gates
// (bench.kernelRatioGates, DESIGN §5a) are held to their bounds whatever the
// tolerance and whatever the snapshot records, and each is printed with its
// reading and its bound under the run's field kernel, or as n/a where it
// does not apply there; an n/a gate is not counted among those that hold.
func compare(ref, fresh *bench.BaselineReport, serving []bench.BaselineEntry, path string, tolerance float64, out io.Writer) error {
	regs, err := bench.CompareBaselines(ref, fresh, tolerance)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	fmt.Fprintf(out, "benchtab check: %d entries compared with %s, %d of them serving, on a toy fleet:", len(fresh.Entries), path, len(serving))
	for _, e := range serving {
		fmt.Fprintf(out, " %s", e.Name)
	}
	fmt.Fprintln(out)
	broken := map[string]bool{}
	for _, r := range regs {
		if r.Metric == "ratio" {
			broken[r.Name] = true
		}
	}
	held := 0
	for i, r := range fresh.Ratios {
		verdict := "≤"
		switch {
		case r.NA:
			fmt.Fprintf(out, "benchtab check: gate %d %s n/a (fp kernel %q)\n", i+1, r.Name, fresh.FpKernel)
			continue
		case broken[r.Name]:
			verdict = ">"
		default:
			held++
		}
		fmt.Fprintf(out, "benchtab check: gate %d %s %g %s %g\n", i+1, r.Name, r.Value, verdict, bench.RatioBound(r.Name, fresh.FpKernel))
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
