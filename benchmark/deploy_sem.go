package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/sem"
)

// Op classes of the SEM workloads. The first is the class whose latency the
// blocking-path attribution explains.
const (
	classToken = iota
	classSign
	classChurn
)

var semClasses = []string{"token", "sign", "churn"}

// msgLen is the IBE plaintext block size used everywhere.
const msgLen = 32

// ctEvery: one identity in ctEvery carries a real FullIdent ciphertext, so
// the traced run can finish that share of tokens with core.UserDecrypt.
const ctEvery = 16

// seqLen is how many ops are generated before the sequence repeats.
const seqLen = 1 << 16

// warmIDs bounds the identities the warm-up touches. A hot set at most this
// large is fully cached before the first timed op; a larger traffic set
// fills the rest of the SEM's 256-entry cache early in the first window,
// which the median over windows does not see.
const warmIDs = 128

// churnPerCaller is how many churn identities each caller owns. Callers
// never share one, so a revoke→unrevoke pair is never interleaved with
// another on the same identity.
const churnPerCaller = 4

// semSpec is everything that distinguishes one SEM workload from another.
// The servers and clients are configured from it at set-up and never see a
// workload name.
type semSpec struct {
	params     string // pairing parameter set
	shards     int
	replicated bool // journals, leader + follower, Replicas = shards
	ids        int  // enrolled population
	hot        int  // traffic is uniform over the first hot identities
	signPct    int  // share of ops that are GDH half-signs
	churnPct   int  // share of ops that are revoke→unrevoke pairs
	callers    int
	poolSize   int // client connections per shard
}

// ctCase is what finishing a token into a plaintext needs.
type ctCase struct {
	ct   *bf.Ciphertext
	user *core.UserKeyHalf
	msg  []byte
}

// opRef is one generated op: its class and the identity it addresses.
type opRef struct {
	class uint8
	id    uint32
}

// semDeployment is a SEM fleet on loopback TCP plus the generated inputs
// and oracles of the workload driving it.
type semDeployment struct {
	spec semSpec
	pp   *pairing.Params
	pub  *bf.PublicParams
	tr   *tracer // nil outside the traced run

	ids    []string
	us     []*curve.Point // request point U per identity
	tokens [][]byte       // oracle: ê(U, d_sem).Bytes()
	cts    []*ctCase      // nil for identities without a real ciphertext
	hs     []*curve.Point // message hash per identity (signing workloads)
	halves []*curve.Point // oracle: x_sem·h
	seq    []opRef

	churnIDs   []string
	churnHs    []*curve.Point
	churnWant  []*curve.Point
	churnCount []int // churn pairs done, per caller (each touched by its caller only)

	// Kept for layer replay only (the SEM's own copies live in the servers).
	ibeHalves []*core.SEMKeyHalf
	gdhHalves []*core.GDHSEMKey

	dir       string
	wire      atomic.Int64
	servers   []*sem.Server
	serveWG   sync.WaitGroup
	ibes      []*core.IBESEM
	journals  []*core.Journal
	leader    *repl.Leader
	leaderIdx int
	sc        *sem.ShardedClient
	addrs     []string
	// Direct single-connection pools for what the sharded client does not
	// expose: Status on the leader (the revoke oracle), pings, and — in the
	// traced run — reads at the follower.
	leaderPool   *sem.Pool
	followerPool *sem.Pool

	clientReg  *obs.Registry
	serverRegs []*obs.Registry

	enrollDur, registerDur time.Duration
	stale, revokes         atomic.Int64
}

// newSEMDeployment generates the workload's inputs from g, starts the fleet
// and enrolls the population over the wire. With instrument set, every
// layer that offers a metrics hook gets a registry.
func newSEMDeployment(spec semSpec, g *gen, instrument bool, tr *tracer) (_ *semDeployment, err error) {
	d := &semDeployment{spec: spec, tr: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.pp, err = pairing.ByName(spec.params); err != nil {
		return nil, err
	}
	pkg, err := core.NewMediatedPKG(g.stream("ibe-setup"), d.pp, msgLen)
	if err != nil {
		return nil, err
	}
	d.pub = pkg.Public()
	if instrument {
		d.clientReg = obs.NewRegistry()
	}

	if err := d.generate(pkg, g); err != nil {
		return nil, err
	}
	if err := d.startFleet(instrument); err != nil {
		return nil, err
	}
	if err := d.enroll(); err != nil {
		return nil, err
	}
	return d, nil
}

// generate derives identities, key halves, request points, oracles and the
// op sequence from the seed. Identities are independent of each other (each
// reads its own forked stream), so their key generation is fanned across
// the procs; the result does not depend on the schedule.
func (d *semDeployment) generate(pkg *core.MediatedPKG, g *gen) error {
	spec := d.spec
	start := time.Now()
	q1 := new(big.Int).Sub(d.pp.Q(), big.NewInt(1)) //cryptolint:public (the group order is a public parameter)

	n := spec.ids
	d.ids = make([]string, n)
	d.ibeHalves = make([]*core.SEMKeyHalf, n)
	d.us = make([]*curve.Point, n)
	d.tokens = make([][]byte, n)
	d.cts = make([]*ctCase, n)
	errs := make([]error, n)
	parallel.Fan(n, func(i int) {
		id := fmt.Sprintf("u%05d@bench", i)
		st := g.stream("ibe/" + id)
		user, half, err := pkg.SplitExtract(st, id)
		if err != nil {
			errs[i] = err
			return
		}
		var u *curve.Point
		if i%ctEvery == 0 {
			msg := st.bytes(msgLen)
			ct, err := d.pub.Encrypt(st, id, msg)
			if err != nil {
				errs[i] = err
				return
			}
			d.cts[i] = &ctCase{ct: ct, user: user, msg: msg}
			u = ct.U
		} else {
			// U = r·P stands for a ciphertext's public first component.
			r := new(big.Int).SetBytes(st.bytes(len(q1.Bytes()) + 8)) //cryptolint:public (request points are wire inputs, not key material)
			u = d.pp.GeneratorMul(r.Add(r.Mod(r, q1), big.NewInt(1))) //cryptolint:public (request points are wire inputs, not key material)
		}
		// The oracle: what a correct SEM must answer for this request.
		tok, err := d.pp.Pair(u, half.D)
		if err != nil {
			errs[i] = err
			return
		}
		d.ids[i], d.ibeHalves[i], d.us[i] = id, half, u
		d.tokens[i] = tok.Bytes() //cryptolint:public (the token is the SEM's wire output; the oracle holds the bytes a correct SEM sends)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, id := range d.ids {
		g.record([]byte(id))
		g.record(d.us[i].Marshal())
	}

	if spec.signPct > 0 || spec.churnPct > 0 {
		// Signing keys for the population and for the churn pool, which is
		// disjoint from it so live traffic never meets a revoked identity.
		ta := core.NewGDHAuthority(d.pp)
		ids := append([]string(nil), d.ids...)
		for i := range spec.callers * churnPerCaller {
			ids = append(ids, fmt.Sprintf("c%03d@bench", i))
		}
		hs, want := make([]*curve.Point, len(ids)), make([]*curve.Point, len(ids))
		d.gdhHalves = make([]*core.GDHSEMKey, len(ids))
		errs := make([]error, len(ids))
		parallel.Fan(len(ids), func(i int) {
			_, half, err := ta.Keygen(g.stream("gdh/"+ids[i]), ids[i])
			if err != nil {
				errs[i] = err
				return
			}
			if hs[i], err = bls.HashMessage(d.pp, []byte("doc for "+ids[i])); err != nil {
				errs[i] = err
				return
			}
			d.gdhHalves[i] = half
			want[i] = hs[i].ScalarMul(half.X) //cryptolint:public (oracle: the half-signature a correct SEM sends)
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
		d.hs, d.halves = hs[:n], want[:n]
		d.churnIDs, d.churnHs, d.churnWant = ids[n:], hs[n:], want[n:]
		d.churnCount = make([]int, spec.callers)
		for _, h := range hs {
			g.record(h.Marshal())
		}
	}
	d.enrollDur = time.Since(start)

	ops := g.stream("ops")
	d.seq = make([]opRef, seqLen)
	for k := range d.seq {
		class := classToken
		switch r := ops.intn(100); {
		case r < spec.churnPct:
			class = classChurn
		case r < spec.churnPct+spec.signPct:
			class = classSign
		}
		d.seq[k] = opRef{class: uint8(class), id: uint32(ops.intn(spec.hot))}
		g.record([]byte{byte(class), byte(d.seq[k].id >> 8), byte(d.seq[k].id)})
	}
	return nil
}

// startFleet brings up one sem.Server per shard on counted loopback
// listeners and the sharded client over them. A replicated fleet gets a
// journal per shard, a follower on every shard and the leader on the shard
// the ring designates.
func (d *semDeployment) startFleet(instrument bool) (err error) {
	spec := d.spec
	lns := make([]net.Listener, spec.shards)
	for i := range lns {
		if lns[i], err = listen(&d.wire); err != nil {
			return err
		}
		d.addrs = append(d.addrs, lns[i].Addr().String())
	}
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				_ = ln.Close() // listeners no server took over
			}
		}
	}()

	cfg := sem.ShardedConfig{
		Pool:    sem.PoolConfig{Size: spec.poolSize, HealthInterval: -1},
		Metrics: d.clientReg,
	}
	if spec.replicated {
		cfg.Replicas = spec.shards
	}
	if d.sc, err = sem.NewShardedClient(d.addrs, d.pp, cfg); err != nil {
		return err
	}

	if spec.replicated {
		if d.dir, err = os.MkdirTemp("", "medbench-journal-*"); err != nil {
			return err
		}
		for i := range spec.shards {
			j, err := core.OpenJournal(filepath.Join(d.dir, fmt.Sprintf("shard%d.jsonl", i)))
			if err != nil {
				return err
			}
			d.journals = append(d.journals, j)
			if d.addrs[i] == d.sc.LeaderAddr() { //cryptolint:public (shard addresses are deployment metadata)
				d.leaderIdx = i
			}
		}
	}

	d.servers = make([]*sem.Server, spec.shards)
	d.ibes = make([]*core.IBESEM, spec.shards)
	d.serverRegs = make([]*obs.Registry, spec.shards)
	start := func(i int, leader *repl.Leader) error {
		scfg := sem.Config{Pairing: d.pp, AllowRegister: true, Leader: leader}
		if instrument {
			d.serverRegs[i] = obs.NewRegistry()
			scfg.Metrics = d.serverRegs[i]
		}
		scfg.Registry = core.NewRegistry()
		if spec.replicated {
			j := d.journals[i]
			scfg.Registry, scfg.Journal = j.Registry(), j
			scfg.Repl = repl.NewFollower(j)
			if instrument {
				j.Instrument(d.serverRegs[i])
				scfg.Repl.Instrument(d.serverRegs[i])
			}
		}
		d.ibes[i] = core.NewIBESEM(d.pub, scfg.Registry)
		scfg.IBE = d.ibes[i]
		if len(d.gdhHalves) > 0 {
			scfg.GDH = core.NewGDHSEM(d.pp, scfg.Registry)
		}
		srv, err := sem.NewServer(scfg)
		if err != nil {
			return err
		}
		d.servers[i] = srv
		ln := lns[i]
		lns[i] = nil
		d.serveWG.Add(1)
		go func() {
			defer d.serveWG.Done()
			_ = srv.Serve(ln) // returns when close() closes the server
		}()
		return nil
	}
	// Followers first: the leader dials its peers as soon as it exists.
	var peers []string
	for i := range spec.shards {
		if spec.replicated && i == d.leaderIdx {
			continue
		}
		if err := start(i, nil); err != nil {
			return err
		}
		peers = append(peers, d.addrs[i])
	}
	if spec.replicated {
		d.leader, err = repl.NewLeader(repl.LeaderConfig{
			Journal:       d.journals[d.leaderIdx],
			Epoch:         1,
			Peers:         peers,
			Dial:          sem.ReplDialer(2 * time.Second),
			RetryInterval: 20 * time.Millisecond,
			Metrics:       d.serverRegs[d.leaderIdx],
		})
		if err != nil {
			return err
		}
		if err := start(d.leaderIdx, d.leader); err != nil {
			return err
		}
		direct := sem.PoolConfig{Size: 1, HealthInterval: -1}
		d.leaderPool = sem.NewPool(d.addrs[d.leaderIdx], d.pp, direct)
		if d.tr != nil {
			d.followerPool = sem.NewPool(peers[0], d.pp, direct)
		}
	}
	return nil
}

// enroll delivers every SEM key half over the wire, to every replica.
func (d *semDeployment) enroll() error {
	start := time.Now()
	defer func() { d.registerDur = time.Since(start) }()
	ds := make([]*curve.Point, len(d.ibeHalves))
	for i, h := range d.ibeHalves {
		ds[i] = h.D
	}
	errs, err := d.sc.RegisterIBEBatch(d.ids, ds)
	if err = errors.Join(append(errs, err)...); err != nil {
		return fmt.Errorf("register IBE halves: %w", err)
	}
	if len(d.gdhHalves) == 0 {
		return nil
	}
	ids := append(append([]string(nil), d.ids...), d.churnIDs...)
	xs := make([]*big.Int, len(d.gdhHalves))
	for i, h := range d.gdhHalves {
		xs[i] = h.X
	}
	errs, err = d.sc.RegisterGDHBatch(ids, xs)
	if err = errors.Join(append(errs, err)...); err != nil {
		return fmt.Errorf("register GDH halves: %w", err)
	}
	return nil
}

func (d *semDeployment) classes() []string { return semClasses }
func (d *semDeployment) callers() int      { return d.spec.callers }
func (d *semDeployment) wireBytes() int64  { return d.wire.Load() }

// warm touches each identity of the traffic set once, up to warmIDs of
// them, so dials, protocol negotiation and the first cache fills stay out
// of the measured phase. A replicated fleet also runs one churn pair per caller and waits
// for the follower to acknowledge it: replication is streaming before the
// first timed op.
func (d *semDeployment) warm() error {
	for i := range min(d.spec.hot, warmIDs) {
		if err := d.token(-1, i); err != nil {
			return fmt.Errorf("warm-up token: %w", err)
		}
		if d.spec.signPct > 0 {
			if err := d.sign(d.ids[i], d.hs[i], d.halves[i]); err != nil {
				return fmt.Errorf("warm-up sign: %w", err)
			}
		}
	}
	if d.spec.churnPct == 0 {
		return nil
	}
	for c := range d.spec.callers {
		if err := d.churn(-1, c); err != nil {
			return fmt.Errorf("warm-up churn: %w", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for want := d.journals[d.leaderIdx].LastSeq(); ; time.Sleep(time.Millisecond) {
		behind := false
		for _, acked := range d.leader.AckedSeqs() {
			behind = behind || acked < want
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("warm-up: follower never caught up with the leader")
		}
	}
}

func (d *semDeployment) op(k int64, caller int) (int, error) {
	o := d.seq[k%int64(len(d.seq))]
	i := int(o.id)
	switch o.class {
	case classSign:
		return classSign, d.sign(d.ids[i], d.hs[i], d.halves[i])
	case classChurn:
		return classChurn, d.churn(k, caller)
	default:
		return classToken, d.token(k, i)
	}
}

// token requests identity i's token and checks it against the oracle. In
// the traced run, tokens for identities that carry a real ciphertext are
// additionally finished into the plaintext.
func (d *semDeployment) token(k int64, i int) error {
	tok, err := d.sc.IBEToken(d.ids[i], d.us[i])
	if err != nil {
		return err
	}
	if !bytes.Equal(tok.Bytes(), d.tokens[i]) { //cryptolint:public (oracle check on the SEM's wire output)
		return fmt.Errorf("token for %s differs from ê(U, d_sem)", d.ids[i])
	}
	if c := d.cts[i]; c != nil && d.tr != nil {
		msg, err := core.UserDecrypt(d.pub, c.user, c.ct, tok)
		if err != nil {
			return err
		}
		if !bytes.Equal(msg, c.msg) { //cryptolint:public (oracle check: the benchmark generated this plaintext)
			return fmt.Errorf("plaintext for %s differs from the message encrypted", d.ids[i])
		}
	}
	return nil
}

func (d *semDeployment) sign(id string, h, want *curve.Point) error {
	half, err := d.sc.GDHHalfSign(id, h)
	if err != nil {
		return err
	}
	if !half.Equal(want) {
		return fmt.Errorf("half-signature for %s differs from x_sem·h", id)
	}
	return nil
}

// churn is one revoke→unrevoke pair on an identity the caller owns: after
// the acknowledged Revoke the leader must report it revoked, and after the
// acknowledged Unrevoke the leader must half-sign for it again. The traced run
// also reads at the follower right after each acknowledgement.
func (d *semDeployment) churn(k int64, caller int) error {
	i := caller*churnPerCaller + d.churnCount[caller]%churnPerCaller
	d.churnCount[caller]++
	id := d.churnIDs[i]

	t0 := time.Now()
	if err := d.sc.Revoke(id, "bench churn"); err != nil {
		return err
	}
	acked := time.Now()
	d.tr.child("repl.revoke_ack", k, t0, acked)
	revoked, err := d.leaderPool.Status(id)
	if err != nil {
		return err
	}
	if !revoked {
		return fmt.Errorf("leader reports %s not revoked after an acknowledged Revoke", id)
	}
	if d.followerPool != nil {
		first, err := d.followerUntil(id, d.churnHs[i], true)
		if err != nil {
			return err
		}
		if k >= 0 { // warm-up pairs are not counted
			d.revokes.Add(1)
			if !first {
				d.stale.Add(1) // the follower served it once more after the ack
			}
		}
		d.tr.child("repl.revoke_visible", k, acked, time.Now())
	}
	if err := d.sc.Unrevoke(id); err != nil {
		return err
	}
	if d.followerPool != nil {
		if _, err := d.followerUntil(id, d.churnHs[i], false); err != nil {
			return err
		}
	}
	// The closing sign is asked of the leader: replication to the follower
	// is asynchronous, so only the leader is certain to have applied the
	// Unrevoke it just acknowledged.
	half, err := d.leaderPool.GDHHalfSign(id, d.churnHs[i])
	if err != nil {
		return err
	}
	if !half.Equal(d.churnWant[i]) {
		return fmt.Errorf("half-signature for %s differs from x_sem·h", id)
	}
	return nil
}

// followerUntil reads at the follower until it refuses id (refused) or
// serves it again (!refused), and reports whether the very first read
// already showed that state.
func (d *semDeployment) followerUntil(id string, h *curve.Point, refused bool) (first bool, err error) {
	deadline := time.Now().Add(2 * time.Second)
	for first = true; ; first = false {
		_, err := d.followerPool.GDHHalfSign(id, h)
		if err != nil && !errors.Is(err, core.ErrRevoked) {
			return false, err
		}
		if (err != nil) == refused {
			return first, nil
		}
		if time.Now().After(deadline) {
			return false, fmt.Errorf("follower state for %s never changed (want refused=%v)", id, refused)
		}
	}
}

func (d *semDeployment) close() {
	if d.sc != nil {
		_ = d.sc.Close()
	}
	for _, p := range []*sem.Pool{d.leaderPool, d.followerPool} {
		if p != nil {
			_ = p.Close()
		}
	}
	if d.leader != nil {
		_ = d.leader.Close()
	}
	for _, s := range d.servers {
		if s != nil {
			_ = s.Close()
		}
	}
	d.serveWG.Wait()
	for _, j := range d.journals {
		_ = j.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}
