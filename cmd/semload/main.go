// Command semload is a closed-loop load generator for a sharded semd
// fleet: it enrolls a population of synthetic identities across the shards
// through the sharded client (so enrollment exercises replica broadcast),
// then drives mixed token/sign/revoke traffic at a fixed concurrency and
// reports request rate and latency quantiles straight from the obs
// registry.
//
// Usage:
//
//	semload -shards 127.0.0.1:7300,127.0.0.1:7301,127.0.0.1:7302 \
//	        -system deploy/system.json -n 1000000 -c 32 -duration 30s
//
// semload acts as its own PKG: the fleet only needs -allow-register. The
// synthetic key halves are sampled exactly like real ones (SplitExtract /
// GDH Keygen), so the server-side cost per op is identical to production
// traffic; the halves simply do not combine with any real user key.
//
// The process exits non-zero if any operation failed at the transport
// layer (dial, routing, failover exhausted) — remote application errors
// (revoked, unknown identity) are reported but do not fail the run, since
// a load mix that includes revocations produces them by design.
package main

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/big"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/keyfile"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/sem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "semload:", err)
		os.Exit(1)
	}
}

// opKinds in mix order; revoke alternates revoke/unrevoke wire ops so the
// revocable pool is reusable for arbitrarily long runs.
var opKinds = []string{"token", "sign", "revoke"}

type mixWeights map[string]int

func parseMix(s string) (mixWeights, error) {
	mix := mixWeights{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix element %q (want op=weight)", part)
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "token", "sign", "revoke":
			mix[name] = w
		default:
			return nil, fmt.Errorf("unknown -mix op %q (want token, sign or revoke)", name)
		}
	}
	total := 0
	for _, w := range mix {
		total += w
	}
	if total == 0 {
		return nil, errors.New("-mix selects no traffic")
	}
	return mix, nil
}

// pick maps a monotone tick onto an op kind proportionally to the weights.
func (m mixWeights) pick(tick int) string {
	total := 0
	for _, k := range opKinds {
		total += m[k]
	}
	r := tick % total
	for _, k := range opKinds {
		if r < m[k] { //cryptolint:public (traffic-mix weights from the command line; not key material)
			return k
		}
		r -= m[k]
	}
	return "token"
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("semload", flag.ContinueOnError)
	var (
		shards    = fs.String("shards", "127.0.0.1:7300", "comma-separated semd shard addresses")
		systemFn  = fs.String("system", "deploy/system.json", "system parameters file (pairing parameter set + message length)")
		n         = fs.Int("n", 1_000_000, "synthetic identities to enroll")
		c         = fs.Int("c", 32, "closed-loop concurrency (worker goroutines)")
		duration  = fs.Duration("duration", 10*time.Second, "measured load window (after enrollment)")
		ops       = fs.Int64("ops", 0, "stop after this many total ops even if -duration has not elapsed (0 = duration only)")
		mixFlag   = fs.String("mix", "token=90,sign=8,revoke=2", "traffic mix as op=weight pairs (token, sign, revoke)")
		poolSize  = fs.Int("pool", sem.DefaultPoolSize, "connections per shard pool")
		replicas  = fs.Int("replicas", 2, "ring replicas per identity (failover depth; clamped to the shard count); revoke traffic on more than 1 needs a fleet with a replication leader")
		regBatch  = fs.Int("register-batch", 1024, "identities per enrollment batch frame")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of a table")
		debugAddr = fs.String("debug-addr", "", "HTTP debug listener (Prometheus /metrics with shard_ring_*/sempool_* series); empty disables")
		printLead = fs.Bool("print-leader", false, "print the shard the ring designates as revocation leader for -shards, then exit (for scripting: start that daemon with -repl-leader)")
		assertCnv = fs.Bool("assert-converged", false, "after the run, poll every shard's revocation list until they agree; exit non-zero on divergence")
		cnvWindow = fs.Duration("converge-timeout", 15*time.Second, "how long -assert-converged waits for the fleet to agree (replication catch-up window)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for name, v := range map[string]int{"n": *n, "c": *c, "pool": *poolSize, "replicas": *replicas, "register-batch": *regBatch} {
		if v < 1 {
			return fmt.Errorf("-%s must be >= 1, got %d", name, v)
		}
	}
	if *duration <= 0 && *ops <= 0 {
		return errors.New("one of -duration or -ops must be positive")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	addrs := splitAddrs(*shards)
	if len(addrs) == 0 {
		return errors.New("-shards selects no addresses")
	}
	if *printLead {
		// Same ring construction as the load path (default virtual-node
		// count), so the printed shard is exactly where Revoke will land.
		// Nothing is dialed: the pools connect lazily.
		sc, err := sem.NewShardedClient(addrs, nil, sem.ShardedConfig{})
		if err != nil {
			return err
		}
		defer func() { _ = sc.Close() }()
		_, err = fmt.Fprintln(out, sc.LeaderAddr()) //cryptolint:public (the leader shard address is deployment metadata; printing it is the flag's purpose)
		return err
	}

	var sys keyfile.System
	if err := keyfile.Load(*systemFn, &sys); err != nil {
		return err
	}
	pp, err := sys.Params()
	if err != nil {
		return err
	}
	msgLen := sys.MsgLen
	if msgLen <= 0 {
		msgLen = 32
	}

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("semload debug listen: %w", err)
		}
		defer func() { _ = dbg.Close() }()
		log.Printf("semload: debug endpoint on http://%s", dbg.Addr)
	}
	sc, err := sem.NewShardedClient(addrs, pp, sem.ShardedConfig{
		Replicas: *replicas,
		Pool:     sem.PoolConfig{Size: *poolSize},
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	defer func() { _ = sc.Close() }()
	if err := sc.Ping(); err != nil {
		return fmt.Errorf("fleet unreachable: %w", err)
	}

	gen := &loadgen{
		sc: sc, pp: pp, mix: mix, reg: reg,
		concurrency: *c, duration: *duration, maxOps: *ops,
	}
	if err := gen.enroll(*n, msgLen, *regBatch); err != nil {
		return err
	}
	if err := gen.drive(); err != nil {
		return err
	}
	report := gen.report(addrs, *n, *poolSize, *replicas)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		report.table(out)
	}
	if *assertCnv {
		if err := assertConverged(addrs, pp, *cnvWindow); err != nil {
			return err
		}
	}
	if report.TransportErrors > 0 {
		return fmt.Errorf("%d transport errors (see report)", report.TransportErrors)
	}
	return nil
}

// assertConverged polls every shard's revocation list directly (one
// dedicated client per shard, no ring routing) until all shards report the
// same identity set or the window closes. With a replicated fleet this is
// the end-to-end convergence check: a revoke that raced a dead follower
// must still appear there once catch-up replication delivers it.
func assertConverged(addrs []string, pp *pairing.Params, window time.Duration) error {
	clients := make([]*sem.Pool, len(addrs))
	for i, a := range addrs {
		c, err := sem.Dial(a, pp, 3*time.Second)
		if err != nil {
			return fmt.Errorf("assert-converged: dial shard %s: %w", a, err)
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	deadline := time.Now().Add(window)
	var last []string // per-shard sorted id-set fingerprints, for the failure report
	for attempt := 0; ; attempt++ {
		sets := make([]string, len(clients))
		var fetchErr error
		for i, c := range clients {
			entries, err := c.ListRevoked()
			if err != nil {
				fetchErr = fmt.Errorf("shard %s: %w", addrs[i], err)
				break
			}
			ids := make([]string, len(entries))
			for j, e := range entries {
				ids[j] = e.ID
			}
			sort.Strings(ids)
			sets[i] = strings.Join(ids, "\n")
		}
		if fetchErr == nil {
			agreed := true
			for _, s := range sets[1:] {
				if s != sets[0] { //cryptolint:public (convergence check compares whole revocation-set fingerprints; set membership is what the tool reports)
					agreed = false
					break
				}
			}
			if agreed {
				n := 0
				if sets[0] != "" {
					n = strings.Count(sets[0], "\n") + 1
				}
				log.Printf("semload: fleet converged — %d shards agree on %d revoked identities (%d poll(s))",
					len(addrs), n, attempt+1)
				return nil
			}
			last = sets
		}
		if time.Now().After(deadline) {
			if fetchErr != nil {
				return fmt.Errorf("assert-converged: %w", fetchErr)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "assert-converged: fleet diverged after %v:", window)
			for i, s := range last {
				n := 0
				if s != "" {
					n = strings.Count(s, "\n") + 1
				}
				fmt.Fprintf(&b, " %s=%d", addrs[i], n)
			}
			return errors.New(b.String())
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// loadgen owns the synthetic population and the closed-loop drivers.
type loadgen struct {
	sc  *sem.ShardedClient
	pp  *pairing.Params
	mix mixWeights
	reg *obs.Registry

	concurrency int
	duration    time.Duration
	maxOps      int64

	safe []string // identities token/sign traffic draws from
	rev  []string // disjoint revocable tail for revoke/unrevoke ops
	hs   []*curve.Point

	wall time.Duration
}

// enroll split-extracts n synthetic identities and registers the SEM
// halves across the fleet in batches; sign traffic additionally gets GDH
// scalar halves. Enrollment happens through the sharded client, so it
// lands on every ring replica of each identity.
func (g *loadgen) enroll(n, msgLen, batch int) error {
	pkg, err := core.NewMediatedPKG(rand.Reader, g.pp, msgLen)
	if err != nil {
		return err
	}
	ta := core.NewGDHAuthority(g.pp)
	wantGDH := g.mix["sign"] > 0

	start := time.Now()
	ids := make([]string, 0, n)
	dsBuf := make([]*curve.Point, 0, batch)
	xsBuf := make([]*big.Int, 0, batch)
	idBuf := make([]string, 0, batch)
	flush := func() error {
		if len(idBuf) == 0 {
			return nil
		}
		if errs, err := g.sc.RegisterIBEBatch(idBuf, dsBuf); err != nil {
			return fmt.Errorf("enroll (ibe): %w", err)
		} else if err := firstErr(errs); err != nil {
			return fmt.Errorf("enroll (ibe): %w", err)
		}
		if wantGDH {
			if errs, err := g.sc.RegisterGDHBatch(idBuf, xsBuf); err != nil {
				return fmt.Errorf("enroll (gdh): %w", err)
			} else if err := firstErr(errs); err != nil {
				return fmt.Errorf("enroll (gdh): %w", err)
			}
		}
		idBuf, dsBuf, xsBuf = idBuf[:0], dsBuf[:0], xsBuf[:0]
		return nil
	}
	logEvery := n / 10
	if logEvery < 100_000 {
		logEvery = 100_000
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("load%07d@semload", i)
		_, semHalf, err := pkg.SplitExtract(rand.Reader, id)
		if err != nil {
			return err
		}
		idBuf = append(idBuf, id)
		dsBuf = append(dsBuf, semHalf.D)
		if wantGDH {
			_, semKey, err := ta.Keygen(rand.Reader, id)
			if err != nil {
				return err
			}
			xsBuf = append(xsBuf, semKey.X)
		}
		ids = append(ids, id)
		if len(idBuf) >= batch {
			if err := flush(); err != nil {
				return err
			}
		}
		if (i+1)%logEvery == 0 {
			log.Printf("semload: enrolled %d/%d identities", i+1, n)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	log.Printf("semload: enrolled %d identities across %d shards in %v",
		n, len(g.sc.Addrs()), time.Since(start).Round(time.Millisecond))

	// Carve a disjoint revocable tail so revoke traffic never poisons the
	// token/sign population mid-run.
	tail := 0
	if g.mix["revoke"] > 0 { //cryptolint:public (traffic-mix weights from the command line; not key material)
		tail = n / 10
		if tail > 1024 {
			tail = 1024
		}
		if tail < 1 {
			tail = 1
		}
		if tail >= n {
			tail = n - 1
		}
	}
	g.safe, g.rev = ids[:n-tail], ids[n-tail:]
	if len(g.safe) == 0 {
		g.safe = g.rev // degenerate single-identity population
	}

	// Pre-hash a handful of messages for the sign path; the per-op
	// hash-to-point belongs to the user, not to the serving layer under
	// test.
	for i := 0; i < 16; i++ {
		h, err := bls.HashMessage(g.pp, []byte(fmt.Sprintf("semload message %d", i)))
		if err != nil {
			return err
		}
		g.hs = append(g.hs, h)
	}
	return nil
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// drive runs the closed loop: concurrency workers issuing ops drawn from
// the mix until the window elapses (or the op budget is spent).
func (g *loadgen) drive() error {
	u := g.pp.Generator()
	var (
		hist  = map[string]*obs.Histogram{}
		okC   = map[string]*obs.Counter{}
		remC  = map[string]*obs.Counter{}
		tranC = map[string]*obs.Counter{}
	)
	for _, k := range opKinds {
		l := obs.Label{Key: "op", Value: k}
		hist[k] = g.reg.Histogram("semload_op_seconds", "per-op latency by kind", l)
		okC[k] = g.reg.Counter("semload_ops_total", "completed ops by kind", l)
		remC[k] = g.reg.Counter("semload_errors_total", "failed ops by kind and class", l, obs.Label{Key: "class", Value: "remote"})
		tranC[k] = g.reg.Counter("semload_errors_total", "failed ops by kind and class", l, obs.Label{Key: "class", Value: "transport"})
	}

	var total atomic.Int64
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }
	if g.duration > 0 {
		t := time.AfterFunc(g.duration, halt)
		defer t.Stop()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One shared tick stream across all workers: per-worker
				// counters would hand every worker the same mix prefix, so
				// a short (or race-slowed) run degenerates to pure token
				// traffic before any worker's counter reaches the sign or
				// revoke band.
				n := total.Add(1)
				if g.maxOps > 0 && n > g.maxOps {
					halt()
					return
				}
				i := int(n - 1)
				kind := g.mix.pick(i)
				opStart := time.Now()
				var err error
				switch kind {
				case "token":
					_, err = g.sc.IBEToken(g.safe[i%len(g.safe)], u)
				case "sign":
					_, err = g.sc.GDHHalfSign(g.safe[i%len(g.safe)], g.hs[i%len(g.hs)])
				case "revoke":
					id := g.rev[(i/2)%len(g.rev)]
					if i%2 == 0 {
						err = g.sc.Revoke(id, "semload churn")
					} else {
						err = g.sc.Unrevoke(id)
					}
				}
				hist[kind].Since(opStart)
				switch {
				case err == nil:
					okC[kind].Inc()
				case errors.Is(err, sem.ErrRemote):
					remC[kind].Inc()
				default:
					tranC[kind].Inc()
				}
			}
		}()
	}
	wg.Wait()
	g.wall = time.Since(start)
	return nil
}

// opReport is the per-kind slice of the final report.
type opReport struct {
	Count           uint64  `json:"count"`
	RPS             float64 `json:"rps"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
	RemoteErrors    uint64  `json:"remote_errors"`
	TransportErrors uint64  `json:"transport_errors"`
}

type loadReport struct {
	Shards          []string            `json:"shards"`
	Identities      int                 `json:"identities"`
	Concurrency     int                 `json:"concurrency"`
	PoolSize        int                 `json:"pool_size"`
	Replicas        int                 `json:"replicas"`
	WallSeconds     float64             `json:"wall_seconds"`
	TotalRPS        float64             `json:"total_rps"`
	TransportErrors uint64              `json:"transport_errors"`
	Ops             map[string]opReport `json:"ops"`
	Metrics         json.RawMessage     `json:"metrics"`
}

func (g *loadgen) report(addrs []string, n, pool, replicas int) *loadReport {
	rep := &loadReport{
		Shards:      addrs,
		Identities:  n,
		Concurrency: g.concurrency,
		PoolSize:    pool,
		Replicas:    replicas,
		WallSeconds: g.wall.Seconds(),
		Ops:         map[string]opReport{},
	}
	var totalOps uint64
	for _, k := range opKinds {
		if g.mix[k] == 0 { //cryptolint:public (traffic-mix weights from the command line; not key material)
			continue
		}
		l := obs.Label{Key: "op", Value: k}
		snap := g.reg.Histogram("semload_op_seconds", "", l).Snapshot()
		o := opReport{
			Count:           g.reg.Counter("semload_ops_total", "", l).Value(),
			P50Ms:           float64(snap.Quantile(0.50)) / 1e6,
			P95Ms:           float64(snap.Quantile(0.95)) / 1e6,
			P99Ms:           float64(snap.Quantile(0.99)) / 1e6,
			RemoteErrors:    g.reg.Counter("semload_errors_total", "", l, obs.Label{Key: "class", Value: "remote"}).Value(),
			TransportErrors: g.reg.Counter("semload_errors_total", "", l, obs.Label{Key: "class", Value: "transport"}).Value(),
		}
		if g.wall > 0 {
			o.RPS = float64(o.Count) / g.wall.Seconds()
		}
		rep.Ops[k] = o
		totalOps += o.Count
		rep.TransportErrors += o.TransportErrors
	}
	if g.wall > 0 {
		rep.TotalRPS = float64(totalOps) / g.wall.Seconds()
	}
	var buf strings.Builder
	if err := g.reg.WriteJSON(&buf); err == nil {
		rep.Metrics = json.RawMessage(buf.String())
	}
	return rep
}

func (r *loadReport) table(out io.Writer) {
	fmt.Fprintf(out, "== semload: %d ids, %d shards, c=%d, pool=%d, replicas=%d, %.1fs ==\n",
		r.Identities, len(r.Shards), r.Concurrency, r.PoolSize, r.Replicas, r.WallSeconds)
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "%-8s %10s %10s %9s %9s %9s %8s %8s\n",
		"op", "count", "req/s", "p50(ms)", "p95(ms)", "p99(ms)", "remote", "transp")
	for _, k := range kinds {
		o := r.Ops[k] //cryptolint:public (aggregate per-op throughput stats; observability output)
		fmt.Fprintf(out, "%-8s %10d %10.1f %9.3f %9.3f %9.3f %8d %8d\n",
			k, o.Count, o.RPS, o.P50Ms, o.P95Ms, o.P99Ms, o.RemoteErrors, o.TransportErrors) //cryptolint:public (aggregate throughput stats; the report is the tool's purpose)
	}
	fmt.Fprintf(out, "total    %10.1f req/s, %d transport errors\n", r.TotalRPS, r.TransportErrors)
}
