// Command benchmark is the repository's end-to-end benchmark: it builds each
// deployment in-process on loopback TCP through the public constructors,
// drives one of four workloads from a seed-derived input stream in a closed
// loop, checks every result against an oracle, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	go run ./benchmark                        all workloads, end-to-end metrics
//	go run ./benchmark -workload token_hot    one workload
//	go run ./benchmark -trace 1               per-layer metrics (traced run)
//	go run ./benchmark -repeat 5              five sets and their spread
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one metric. BENCHMARK.json at the repository root lists
// the same names; the self-test keeps the two in step.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end: share of the parent's median it may worsen by
	moves              string  // per-layer: the end-to-end metric and workload it is predicted to move
}

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "1", better: "lower", bound: 0.05},
	{name: "wire_bytes_per_op", unit: "B", better: "lower", bound: 0.05},
}

var perLayer = []metricSpec{
	{name: "pairing.fixed_pair_us", unit: "us", better: "lower", moves: "p50_ms, cpu_ms_per_op, ops_per_s on token_hot; not fleet_mix_toy"},
	{name: "pairing.pair_us", unit: "us", better: "lower", moves: "p50_ms, cpu_ms_per_op, ops_per_s on token_hot; not fleet_mix_toy"},
	{name: "pairing.fixed_precompute_us", unit: "us", better: "lower", moves: "cpu_ms_per_op, p50_ms on token_cold; not token_hot"},
	{name: "pairing.fixed_programs_per_op", unit: "1", better: "lower", moves: "cpu_ms_per_op, p50_ms on token_cold; not token_hot"},
	{name: "pairing.multipair_pairs_per_call", unit: "1", better: "higher", moves: "p50_ms, cpu_ms_per_op on threshold_3of5; not token workloads"},
	{name: "lru.pairer_hit_ratio", unit: "1", better: "higher", moves: "ops_per_s on token_cold; stays ~1 on token_hot"},
	{name: "lru.evictions_per_op", unit: "1", better: "lower", moves: "ops_per_s on token_cold; stays 0 on token_hot"},
	{name: "core.token_hit_us", unit: "us", better: "lower", moves: "p50_ms on token_hot; not threshold_3of5"},
	{name: "core.token_miss_us", unit: "us", better: "lower", moves: "p50_ms on token_cold; not threshold_3of5"},
	{name: "core.revocation_check_ns", unit: "ns", better: "lower", moves: "p50_ms on fleet_mix_toy; not threshold_3of5"},
	{name: "core.gdh_halfsign_us", unit: "us", better: "lower", moves: "p50_ms on fleet_mix_toy; not threshold_3of5"},
	{name: "wire.unmarshal_g1_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on token_hot"},
	{name: "wire.unmarshal_gt_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on token_hot"},
	{name: "wire.req_codec_ns", unit: "ns", better: "lower", moves: "allocs_per_op, ops_per_s on fleet_mix_toy; not token_hot"},
	{name: "wire.resp_codec_ns", unit: "ns", better: "lower", moves: "allocs_per_op, ops_per_s on fleet_mix_toy; not token_hot"},
	{name: "wire.codec_allocs", unit: "1", better: "lower", moves: "allocs_per_op on fleet_mix_toy; not token_hot"},
	{name: "sem.ping_rtt_us", unit: "us", better: "lower", moves: "p50_ms on fleet_mix_toy; not threshold_3of5"},
	{name: "sem.server_service_p50_us", unit: "us", better: "lower", moves: "ops_per_s on fleet_mix_toy"},
	{name: "sem.batch_size_mean", unit: "1", better: "higher", moves: "ops_per_s on fleet_mix_toy"},
	{name: "sem.queue_depth_max", unit: "1", better: "lower", moves: "ops_per_s on fleet_mix_toy"},
	{name: "sem.pool_items_per_frame", unit: "1", better: "higher", moves: "ops_per_s, wire_bytes_per_op on fleet_mix_toy; ~1 on token_hot"},
	{name: "sem.pool_redials", unit: "count", better: "lower", moves: "ops_per_s on fleet_mix_toy; must stay 0"},
	{name: "sem.unattributed_us", unit: "us", better: "lower", moves: "p50_ms on every SEM workload (the residual of the attribution)"},
	{name: "sem.unattributed_share", unit: "1", better: "lower", moves: "sem.unattributed_us as a share of the token class's p50"},
	{name: "shard.lookup_ns", unit: "ns", better: "lower", moves: "cpu_ms_per_op on fleet_mix_toy"},
	{name: "shard.failovers", unit: "count", better: "lower", moves: "must stay 0 on every workload"},
	{name: "core.journal_append_us", unit: "us", better: "lower", moves: "p50 of the churn class on fleet_mix_toy; not token workloads"},
	{name: "core.journal_appends_per_fsync", unit: "1", better: "higher", moves: "p50 of the churn class on fleet_mix_toy; not token workloads"},
	{name: "repl.revoke_ack_us", unit: "us", better: "lower", moves: "none (correctness signal) on fleet_mix_toy"},
	{name: "repl.revoke_visible_us", unit: "us", better: "lower", moves: "none (correctness signal) on fleet_mix_toy"},
	{name: "repl.stale_serve_share", unit: "1", better: "lower", moves: "none (the paper's invariant, measured) on fleet_mix_toy"},
	{name: "core.share_with_proof_ms", unit: "ms", better: "lower", moves: "p50_ms, cpu_ms_per_op on threshold_3of5; not token workloads"},
	{name: "core.verify_share_ms", unit: "ms", better: "lower", moves: "p50_ms, cpu_ms_per_op on threshold_3of5; not token workloads"},
	{name: "core.combine_us", unit: "us", better: "lower", moves: "p50_ms on threshold_3of5; not token workloads"},
	{name: "cluster.fetch_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on threshold_3of5 (slowest player's median)"},
	{name: "cluster.quorum_wait_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on threshold_3of5"},
	{name: "cluster.pool_reuse_ratio", unit: "1", better: "higher", moves: "p50_ms on threshold_3of5"},
	{name: "cluster.rejected_shares", unit: "count", better: "lower", moves: "must stay 0 on threshold_3of5"},
	{name: "setup.enroll_us_per_id", unit: "us", better: "lower", moves: "setup_s on every workload"},
	{name: "setup.register_us_per_id", unit: "us", better: "lower", moves: "setup_s on every workload"},
	{name: "op.p50_us", unit: "us", better: "lower", moves: "the traced phase's root-span p50 (token class on SEM workloads)"},
	{name: "op.replay_p50_us", unit: "us", better: "lower", moves: "p50_ms: median of the replayed blocking-path steps of one op"},
	{name: "runtime.gc_cpu_share", unit: "1", better: "lower", moves: "diagnostic for cpu_ms_per_op on every workload"},
	{name: "runtime.ctx_switches_per_op", unit: "1", better: "lower", moves: "diagnostic for cpu_ms_per_op and tails on every workload"},
	{name: "client.p99_ms", unit: "ms", better: "lower", moves: "diagnostic: the tail does not repeat within a tenth on a shared host"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "traced vs untraced ops_per_s in the same process"},
	{name: "host.calib_ops_per_s", unit: "1/s", better: "higher", moves: "none: whether the box moved (kernel ops/s per proc)"},
	{name: "host.correction", unit: "1", better: "lower", moves: "none: reference host speed / measured host speed"},
	{name: "host.steal_share", unit: "1", better: "lower", moves: "none: whether the box moved"},
	{name: "host.gomaxprocs", unit: "1", better: "higher", moves: "none: whether the box moved"},
}

// deployment is one workload's system under test plus its inputs.
type deployment interface {
	classes() []string
	callers() int
	warm() error
	op(k int64, caller int) (class int, err error)
	wireBytes() int64
	close()
	// Traced run only.
	counters() counters
	queueDepth() float64
	layers(ls layerSet, load *loadResult, delta counters, tr *tracer) error
}

// workload pairs a name with the spec its deployment is built from. The
// name stays here: servers, clients and players are configured from the
// spec and see only generated inputs.
type workload struct {
	name, why, params string
	build             func(g *gen, o *options, instrument bool, tr *tracer) (deployment, error)
}

// callers is the default closed-loop caller count: one per proc, at most 4,
// so the process needs no more threads or connections than the box has.
func callers() int { return min(runtime.GOMAXPROCS(0), 4) }

func semWorkload(name, why string, full, quick semSpec) workload {
	return workload{name: name, why: why, params: full.params,
		build: func(g *gen, o *options, instrument bool, tr *tracer) (deployment, error) {
			spec := full
			if o.quick {
				spec = quick
			}
			return newSEMDeployment(spec, g, instrument, tr)
		}}
}

var workloads = []workload{
	semWorkload("token_hot",
		"mediated-IBE tokens at paper size over a 64-identity hot set: ~100% pairer-cache hits, so FixedPair.Pair and G1/GT validation do the work",
		semSpec{params: "paper", shards: 1, ids: 1792, hot: 64, callers: callers(), poolSize: callers()},
		semSpec{params: "toy", shards: 1, ids: 128, hot: 32, callers: callers(), poolSize: callers()}),
	semWorkload("token_cold",
		"same fleet and op, traffic uniform over 1024 identities, four times the pairer LRU: ~25% hits, so NewFixedPair precompute and LRU insert/evict dominate",
		semSpec{params: "paper", shards: 1, ids: 1792, hot: 1024, callers: callers(), poolSize: callers()},
		semSpec{params: "toy", shards: 1, ids: 128, hot: 128, callers: callers(), poolSize: callers()}),
	semWorkload("fleet_mix_toy",
		"toy-size crypto behind 2 replicated journaled shards, 16 callers, 68% token / 30% half-sign / 2% revoke+unrevoke: wire, sem, shard and repl do the work",
		semSpec{params: "toy", shards: 2, replicated: true, ids: 11264, hot: 11264, signPct: 30, churnPct: 2, callers: 16, poolSize: 1},
		semSpec{params: "toy", shards: 2, replicated: true, ids: 128, hot: 128, signPct: 30, churnPct: 2, callers: 16, poolSize: 1}),
	{name: "threshold_3of5", params: "paper",
		why: "(3,5) robust threshold-IBE decryption at paper size against 5 players: MultiPair, NIZK verification and the cluster protocol; bypasses the SEM stack",
		build: func(g *gen, o *options, instrument bool, _ *tracer) (deployment, error) {
			spec := thresholdSpec{params: "paper", t: 3, n: 5, ids: 288, callers: callers()}
			if o.quick {
				spec.params, spec.ids = "toy", 8
			}
			return newThresholdDeployment(spec, g, instrument)
		}},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	repeat   int
	quick    bool
}

// The measured phase of -seconds is windows measurement windows with a
// host-speed slice before, between and after them; the timing metrics are
// medians over the windows. A slice is -seconds/sliceShare long, so the
// default 24 s are 13 slices of 0.2 s and 12 windows of 1.78 s.
const (
	windows    = 12
	sliceShare = 120
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 24, "length of the measured phase (12 windows)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1 and one -workload: write the spans to this JSON file")
	fs.IntVar(&o.repeat, "repeat", 0, "run this many full sets and print each end-to-end metric's spread against its bound")
	fs.BoolVar(&o.quick, "quick", false, "toy parameters, small populations, short windows (self-test sizes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if o.traceOut != "" && (o.trace != 1 || len(selected) != 1 || o.repeat > 0) {
		fmt.Fprintln(stderr, "benchmark: -trace-out needs -trace 1 and exactly one -workload")
		return 2
	}
	if o.repeat > 0 {
		return repeatSets(selected, &o, stdout, stderr)
	}
	return runSelected(selected, &o, stdout, stderr)
}

// runSelected runs each workload once and prints its report and result
// line. The exit code is non-zero if a set-up failed or any op did.
func runSelected(selected []workload, o *options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. Its JSON form is the line a driver reads:
// exactly correct, attempted, failed and metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload workload
	opts     *options
	specs    []metricSpec
	measured map[string]float64 // timing metrics before the host correction
	notes    []string
	errs     []string
	host     hostInfo
	inputs   []byte
}

func (r *result) set(spec metricSpec, v float64) {
	r.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
}

// finish settles the verdict: correct means every attempted op passed its
// checks.
func (r *result) finish() { r.Correct = r.Failed == 0 && r.Attempted > 0 }

// print writes the readable report, then the result as one JSON line.
func (r *result) print(w io.Writer) {
	o, h := r.opts, r.host
	paramSet := r.workload.params
	if o.quick {
		paramSet = "toy"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d params=%s quick=%v trace=%d seconds=%d\n", r.workload.name, o.seed, paramSet, o.quick, o.trace, o.seconds)
	fmt.Fprintf(w, "   why: %s\n", r.workload.why)
	fmt.Fprintf(w, "   host: %s GOMAXPROCS=%d NumCPU=%d steal=%.4f speed=%.0f kernel ops/s/proc (reference %.0f); slices: %.0f\n",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.StealShare, h.Speed, referenceSpeed, h.Slices)
	fmt.Fprintf(w, "   inputs sha256: %s\n", hex.EncodeToString(r.inputs))
	fmt.Fprintf(w, "   ops: attempted %d, ok %d, failed %d\n", r.Attempted, r.Attempted-r.Failed, r.Failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, s := range r.specs {
		line := fmt.Sprintf("   %-34s %14.4f %-5s", s.name, r.Metrics[s.name].Value, s.unit)
		if m, ok := r.measured[s.name]; ok {
			line += fmt.Sprintf("  (as measured: %.4f)", m)
		}
		if s.moves != "" {
			line += "  -> " + s.moves
		}
		fmt.Fprintln(w, line)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", line)
}

// setUp builds the workload's deployment and warms it, returning how long
// that took: seed-derived key generation and enrolment, fleet start, dials
// and the fixed warm-up.
func setUp(w workload, o *options, instrument bool, tr *tracer) (deployment, *gen, time.Duration, error) {
	start := time.Now()
	g := newGen(o.seed)
	dep, err := w.build(g, o, instrument, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := dep.warm(); err != nil {
		dep.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return dep, g, time.Since(start), nil
}

// measure runs the closed loop on dep for the given share of -seconds: the
// same share of the windows, with a host-speed slice of meter before,
// between and after them.
func (o *options) measure(dep deployment, share float64, meter *hostMeter) *loadResult {
	n := max(1, int(share*windows))
	total := time.Duration(share * float64(o.seconds) * float64(time.Second))
	win := (total - time.Duration(n+1)*meter.slice) / time.Duration(n)
	return runLoad(dep.op, dep.callers(), n, win, meter.measure, dep.wireBytes)
}

func runWorkload(w workload, o *options) (*result, error) {
	probe := startHostProbe(time.Duration(o.seconds) * time.Second / sliceShare)
	res := &result{Metrics: map[string]metricValue{}, workload: w, opts: o}
	var err error
	if o.trace == 1 {
		err = res.traced(w, o, probe)
	} else {
		err = res.plain(w, o, probe)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// plain is the untraced run: the end-to-end metrics.
func (r *result) plain(w workload, o *options, probe *hostProbe) error {
	// A vCPU that has been idle takes a few hundred milliseconds to come up
	// to speed, so the slice before the set-up is the second of two.
	probe.meter.measure()
	before := probe.meter.measure()
	dep, g, took, err := setUp(w, o, false, nil)
	if err != nil {
		return err
	}
	defer dep.close()
	r.inputs = g.fingerprint()

	load := o.measure(dep, 1, &probe.meter)
	r.Attempted, r.Failed, r.errs = load.attempted, load.failed, load.errs
	r.host = probe.finish()

	// The set-up is bracketed by the slice before it and the first slice of
	// the measured phase.
	setupHost := (before + load.slices[0]) / 2
	lat := load.latenciesMs(-1, true)
	ok := float64(load.ok())
	r.specs = endToEnd
	r.measured = map[string]float64{
		"setup_s":       took.Seconds(),
		"ops_per_s":     median(load.rates(false)),
		"p50_ms":        quantile(load.latenciesMs(-1, false), 0.5),
		"cpu_ms_per_op": median(load.cpusMsPerOp(false)),
	}
	for _, s := range endToEnd {
		switch s.name {
		case "setup_s":
			r.set(s, took.Seconds()*setupHost/referenceSpeed)
		case "ops_per_s":
			r.set(s, median(load.rates(true)))
		case "p50_ms":
			r.set(s, quantile(lat, 0.5))
		case "cpu_ms_per_op":
			r.set(s, median(load.cpusMsPerOp(true)))
		case "allocs_per_op":
			r.set(s, ratio(float64(load.mallocs), ok))
		case "wire_bytes_per_op":
			r.set(s, ratio(float64(load.wire), ok))
		}
	}
	r.notes = append(r.notes,
		fmt.Sprintf("closed loop: %d callers, %d windows of %v; ops/s per window as measured: %.0f",
			dep.callers(), len(load.windows), load.windows[0].end.Sub(load.windows[0].start).Round(time.Millisecond), load.rates(false)),
		fmt.Sprintf("p50 pooled over %d samples; p99 %.3f ms (diagnostic)", len(lat), quantile(lat, 0.99)))
	return nil
}

// traced is the traced run: the per-layer metrics. It measures a short
// untraced phase on an uninstrumented deployment, then builds the
// deployment again with a registry on every layer that offers a hook,
// measures the traced phase, and replays the layers. Per-layer values are
// as measured on this host, not stated at the reference speed.
func (r *result) traced(w workload, o *options, probe *hostProbe) error {
	ref, _, _, err := setUp(w, o, false, nil)
	if err != nil {
		return err
	}
	refLoad := o.measure(ref, 0.25, &probe.meter)
	ref.close()
	runtime.GC()

	tr := &tracer{}
	dep, g, _, err := setUp(w, o, true, tr)
	if err != nil {
		return err
	}
	defer dep.close()
	r.inputs = g.fingerprint()

	before := dep.counters()
	stopSampling := make(chan struct{})
	deepest := make(chan float64)
	go func() {
		// A function-backed gauge can only be sampled by exporting the
		// registry, so the sampling is coarse on purpose.
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		m := 0.0
		for {
			select {
			case <-tick.C:
				m = max(m, dep.queueDepth())
			case <-stopSampling:
				deepest <- m
				return
			}
		}
	}()
	tr.begin = time.Now()
	load := o.measure(dep, 0.5, &probe.meter)
	close(stopSampling)
	queueMax := <-deepest
	delta := dep.counters().sub(before)
	tr.roots(load.samples)

	r.Attempted, r.Failed = refLoad.attempted+load.attempted, refLoad.failed+load.failed
	r.errs = append(refLoad.errs, load.errs...)

	ls := layerSet{"sem.queue_depth_max": queueMax}
	if err := dep.layers(ls, load, delta, tr); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	ls["trace.overhead_pct"] = (1 - ratio(median(load.rates(true)), median(refLoad.rates(true)))) * 100
	ls["runtime.gc_cpu_share"] = load.gcShare
	ls["runtime.ctx_switches_per_op"] = ratio(float64(load.switches), float64(load.ok()))
	ls["client.p99_ms"] = quantile(load.latenciesMs(-1, false), 0.99)

	r.host = probe.finish()
	ls["host.calib_ops_per_s"] = r.host.Speed
	ls["host.correction"] = ratio(referenceSpeed, r.host.Speed)
	ls["host.steal_share"] = r.host.StealShare
	ls["host.gomaxprocs"] = float64(r.host.GOMAXPROCS)

	r.specs = perLayer
	for _, s := range perLayer {
		r.set(s, ls[s.name])
	}
	for c, name := range dep.classes() {
		if lat := load.latenciesMs(c, false); len(lat) > 0 {
			r.notes = append(r.notes, fmt.Sprintf("traced %-7s ops: %6d, p50 %.3f ms", name, len(lat), quantile(lat, 0.5)))
		}
	}
	if p50 := ls["op.p50_us"]; p50 > 0 {
		rest := p50 - ls["sem.ping_rtt_us"] - ls["op.replay_p50_us"]
		r.notes = append(r.notes, fmt.Sprintf("attribution: op p50 %.1f us = transport floor %.1f + replayed steps %.1f + unattributed %.1f (%.0f%%)",
			p50, ls["sem.ping_rtt_us"], ls["op.replay_p50_us"], rest, 100*ratio(rest, p50)))
	}
	if o.traceOut != "" {
		if err := tr.writeFile(o.traceOut, w.name); err != nil {
			return err
		}
	}
	return nil
}

// errTokenMismatch marks a replayed token that differs from the oracle.
var errTokenMismatch = errors.New("replayed token differs from the oracle")

func sortSamples(s []sample) {
	sort.Slice(s, func(i, j int) bool { return s[i].k < s[j].k })
}
