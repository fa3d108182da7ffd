package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/memnet"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/repl"
)

// fleet is n SEM shards on one in-memory network, named shard-1 …
// shard-n, sharing one PKG's system parameters. Each serves IBE and GDH
// with registration allowed, on a registry of its own: a journal's, with a
// replication follower wired in, on a journaled fleet. Clients dial from
// "client", and a replication leader from its shard's name. It is the one
// fleet builder of this package's tests: the wire-level tests and the
// single-server fixtures run on loopback TCP (serveTCP).
type fleet struct {
	t        *testing.T
	pp       *pairing.Params
	pkg      *core.MediatedPKG
	ta       *core.GDHAuthority
	net      *memnet.Network
	addrs    []string
	journals map[string]*core.Journal // by shard, on a journaled fleet
	leader   *repl.Leader
}

// fleetConfig shapes a fleet; the zero value is plain shards.
type fleetConfig struct {
	journaled bool
	// leader, when set, names the shard whose journal leads replication to
	// every other shard at epoch 1; it implies journaled.
	leader string
	// tune, when set, adjusts the leader's configuration before it starts.
	tune func(fl *fleet, lc *repl.LeaderConfig)
}

// shardNames lists the names of an n-shard fleet.
func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i+1)
	}
	return names
}

func newFleet(t *testing.T, n int, cfg fleetConfig) *fleet {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	fl := &fleet{t: t, pp: pp, pkg: pkg, ta: core.NewGDHAuthority(pp), net: memnet.New(), addrs: shardNames(n), journals: map[string]*core.Journal{}}
	for _, name := range fl.addrs {
		if cfg.journaled || cfg.leader != "" {
			fl.journals[name] = tmpJournal(t)
		}
	}
	t.Cleanup(func() {
		if err := fl.net.Close(); err != nil {
			t.Error(err)
		}
	})
	var peers []string
	for _, name := range fl.addrs {
		if name != cfg.leader {
			fl.serve(name, nil)
			peers = append(peers, name)
		}
	}
	if cfg.leader == "" {
		return fl
	}
	lc := repl.LeaderConfig{
		Journal:       fl.journals[cfg.leader],
		Epoch:         1,
		Peers:         peers,
		Dial:          replDialer(fl.poolConfig(cfg.leader)),
		RetryInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	}
	if cfg.tune != nil {
		cfg.tune(fl, &lc)
	}
	if fl.leader, err = repl.NewLeader(lc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.leader.Close() })
	fl.serve(cfg.leader, fl.leader)
	return fl
}

// serve starts shard name's server; leader, when set, leads from its
// journal.
func (fl *fleet) serve(name string, leader *repl.Leader) {
	cfg := Config{Registry: core.NewRegistry(), Pairing: fl.pp, AllowRegister: true, Leader: leader}
	if j := fl.journals[name]; j != nil {
		cfg.Registry, cfg.Journal, cfg.Repl = j.Registry(), j, repl.NewFollower(j)
	}
	cfg.IBE, cfg.GDH = core.NewIBESEM(fl.pkg.Public(), cfg.Registry), core.NewGDHSEM(fl.pp, cfg.Registry)
	srv, err := NewServer(cfg)
	if err != nil {
		fl.t.Fatal(err)
	}
	if err := fl.net.Serve(name, srv); err != nil {
		fl.t.Fatal(err)
	}
}

// poolConfig is Dial's one-connection pool on the fleet's network, dialing
// from origin.
func (fl *fleet) poolConfig(origin string) PoolConfig {
	return PoolConfig{Size: 1, DialTimeout: 2 * time.Second, Dial: fl.net.Dialer(origin)}
}

// client is a client of shard addr, closed with the test.
func (fl *fleet) client(addr string) *Pool {
	fl.t.Helper()
	p, err := dial(addr, fl.pp, fl.poolConfig("client"))
	if err != nil {
		fl.t.Fatal(err)
	}
	fl.t.Cleanup(func() { _ = p.Close() })
	return p
}

// sharded is a ShardedClient over the fleet, closed with the test.
func (fl *fleet) sharded(cfg ShardedConfig) *ShardedClient {
	fl.t.Helper()
	cfg.Pool.Dial = fl.net.Dialer("client")
	sc, err := NewShardedClient(fl.addrs, fl.pp, cfg)
	if err != nil {
		fl.t.Fatal(err)
	}
	fl.t.Cleanup(func() { _ = sc.Close() })
	return sc
}

// sever cuts the clients' live connections to shard addr; new dials
// succeed.
func (fl *fleet) sever(addr string) {
	fl.net.Partition("client", addr)
	fl.net.Heal("client", addr)
}

// enrollIBE split-extracts n identities and enrolls the SEM halves through
// c: a sharded client broadcasts them to each identity's replica set.
func (fl *fleet) enrollIBE(c interface {
	RegisterIBEBatch([]string, []*curve.Point) ([]error, error)
}, n int) ([]string, []*core.UserKeyHalf) {
	fl.t.Helper()
	ids := make([]string, n)
	users := make([]*core.UserKeyHalf, n)
	ds := make([]*curve.Point, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("user%03d@shards.example", i)
		user, semHalf, err := fl.pkg.SplitExtract(rand.Reader, ids[i])
		if err != nil {
			fl.t.Fatal(err)
		}
		users[i] = user
		ds[i] = semHalf.D
	}
	errs, err := c.RegisterIBEBatch(ids, ds)
	if err != nil {
		fl.t.Fatalf("bulk enroll: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			fl.t.Fatalf("enroll %s: %v", ids[i], e)
		}
	}
	return ids, users
}

func TestShardedRoutingAndOps(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{})
	reg := obs.NewRegistry()
	sc := fl.sharded(ShardedConfig{Replicas: 2, Metrics: reg})
	if err := sc.Ping(); err != nil {
		t.Fatal(err)
	}

	ids, users := fl.enrollIBE(sc, 24)

	// Identities actually spread across shards.
	dist := sc.Ring().Distribution(ids)
	if len(dist) < 2 {
		t.Fatalf("all %d ids landed on one shard: %v", len(ids), dist)
	}

	// Full mediated decryption through the fleet for a routed sample.
	msg := bytes.Repeat([]byte{0x5a}, msgLen)
	for _, i := range []int{0, 7, 23} {
		ct, err := fl.pkg.Public().Encrypt(rand.Reader, ids[i], msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.DecryptIBE(fl.pkg.Public(), users[i], ct, sc.IBEToken)
		if err != nil {
			t.Fatalf("decrypt %s: %v", ids[i], err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("decrypted %x, want %x", got, msg)
		}
	}

	// Shard-split batch: every id in one call, merged in input order.
	us := make([]*curve.Point, len(ids))
	for i := range us {
		us[i] = fl.pp.Generator()
	}
	tokens, errs, err := sc.TokenBatch(ids, us)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if errs[i] != nil || tokens[i] == nil {
			t.Fatalf("batch slot %d (%s): token=%v err=%v", i, ids[i], tokens[i], errs[i])
		}
	}
	// Input-order merge: slot i's token must equal the directly-requested one.
	direct, err := sc.IBEToken(ids[5], us[5])
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(tokens[5]) {
		t.Fatal("batch result not merged in input order")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard_ring_lookups_total", "shardclient_shard_batches_total", "sempool_frames_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
}

func TestShardedGDHSigning(t *testing.T) {
	fl := newFleet(t, 2, fleetConfig{})
	sc := fl.sharded(ShardedConfig{Replicas: 2})

	id := "signer@shards.example"
	user, semHalf, err := fl.ta.Keygen(rand.Reader, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.RegisterGDH(id, semHalf.X); err != nil {
		t.Fatal(err)
	}
	msg := []byte("sign me across the fleet")
	sig, err := core.SignGDH(user, msg, sc.GDHHalfSign)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Public.Verify(msg, sig); err != nil {
		t.Fatalf("fleet-mediated signature invalid: %v", err)
	}
}

// TestShardedFailoverMidBatch kills one shard and checks a fleet-wide batch
// still completes: the sharded client retries the dead shard's slots on
// each identity's next ring replica, which holds the key half because
// enrollment broadcast to the whole replica set.
func TestShardedFailoverMidBatch(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{})
	reg := obs.NewRegistry()
	sc := fl.sharded(ShardedConfig{Replicas: 2, Metrics: reg})
	ids, _ := fl.enrollIBE(sc, 24)

	// Kill the shard owning the most identities.
	dist := sc.Ring().Distribution(ids)
	var victim string
	for addr, n := range dist {
		if victim == "" || n > dist[victim] {
			victim = addr
		}
	}
	fl.net.Partition("client", victim)

	us := make([]*curve.Point, len(ids))
	for i := range us {
		us[i] = fl.pp.Generator()
	}
	tokens, errs, err := sc.TokenBatch(ids, us)
	if err != nil {
		t.Fatalf("batch with one dead shard: %v", err)
	}
	for i := range ids {
		if errs[i] != nil || tokens[i] == nil {
			t.Fatalf("slot %d (%s) lost despite a live replica: %v", i, ids[i], errs[i])
		}
	}
	if fo := sc.met.failovers.Value(); fo == 0 {
		t.Fatal("no failovers recorded with a dead shard")
	}

	// Kill a second shard: identities whose whole replica set is dead are
	// truly lost and must carry transport errors — everyone else still
	// succeeds.
	var second string
	for _, addr := range fl.addrs {
		if addr != victim {
			second = addr
			break
		}
	}
	fl.net.Partition("client", second)
	tokens, errs, err = sc.TokenBatch(ids, us)
	if tokens == nil {
		t.Fatalf("batch voided entirely: %v", err)
	}
	var scratch [4]string
	lost, served := 0, 0
	for i, id := range ids {
		reps := sc.Ring().Replicas(scratch[:0], id, 2)
		alive := false
		for _, r := range reps {
			if r != victim && r != second {
				alive = true
			}
		}
		switch {
		case alive && (errs[i] != nil || tokens[i] == nil):
			t.Fatalf("slot %d (%s) has a live replica but failed: %v", i, id, errs[i])
		case !alive && errs[i] == nil:
			t.Fatalf("slot %d (%s) has no live replica but succeeded", i, id)
		case !alive && errors.Is(errs[i], ErrRemote):
			t.Fatalf("lost slot %d misclassified as remote error: %v", i, errs[i])
		case alive:
			served++
		default:
			lost++
		}
	}
	if lost > 0 && err == nil {
		t.Fatalf("%d slots lost but batch error is nil", lost)
	}
	t.Logf("two shards dead: %d served via replicas, %d truly lost", served, lost)
}

// TestShardedRevocationSurvivesFailover checks the paper's central claim
// under failover: on a replicated fleet an acknowledged revoke is held by
// every shard, so a revoked identity stays revoked even when its primary
// dies and a replica serves it.
func TestShardedRevocationSurvivesFailover(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{leader: ringLeader(t, 3)})
	sc := fl.sharded(ShardedConfig{Replicas: 2})
	ids, _ := fl.enrollIBE(sc, 4)
	id := ids[0]
	u := fl.pp.Generator()

	if err := sc.Revoke(id, "compromised"); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("token for revoked id = %v, want ErrRevoked", err)
	}

	// Primary dies; the replica must also refuse.
	primary := sc.Ring().Lookup(id)
	fl.net.Partition("client", primary)
	if _, err := sc.IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("token after primary death = %v, want ErrRevoked via replica", err)
	}

	// Others remain unaffected.
	if _, err := sc.IBEToken(ids[1], u); err != nil {
		t.Fatalf("unrevoked id failed: %v", err)
	}
}

func TestShardedClientClosed(t *testing.T) {
	fl := newFleet(t, 2, fleetConfig{})
	sc := fl.sharded(ShardedConfig{})
	if err := sc.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sc.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
	if _, err := sc.IBEToken("x", fl.pp.Generator()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("IBEToken after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := sc.TokenBatch([]string{"x"}, []*curve.Point{fl.pp.Generator()}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("TokenBatch after Close = %v, want ErrClientClosed", err)
	}
}

// TestShardedPoolChurn hammers a fleet while one shard's connections are
// repeatedly severed — the sharded layer's failover plus the pool's
// re-dial must keep every op succeeding.
func TestShardedPoolChurn(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{})
	sc := fl.sharded(ShardedConfig{Replicas: 2, Pool: PoolConfig{Size: 2}})
	ids, _ := fl.enrollIBE(sc, 8)
	u := fl.pp.Generator()

	stop := make(chan struct{})
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fl.sever(fl.addrs[0])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := ids[(w*25+i)%len(ids)]
				if _, err := sc.IBEToken(id, u); err != nil {
					t.Errorf("op under churn failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	killWG.Wait()
}
