package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pairing"
)

// fleet is a multi-shard SEM fixture: n independent servers sharing one
// PKG's system parameters, each reachable only through its own
// killableProxy so tests can sever individual shards.
type fleet struct {
	t       *testing.T
	pp      *pairing.Params
	pkg     *core.MediatedPKG
	ta      *core.GDHAuthority
	proxies []*killableProxy
	addrs   []string // proxy addresses, what clients route on
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	fl := &fleet{t: t, pp: pp, pkg: pkg, ta: core.NewGDHAuthority(pp)}
	for i := 0; i < n; i++ {
		reg := core.NewRegistry()
		srv, err := NewServer(Config{
			Registry:      reg,
			IBE:           core.NewIBESEM(pkg.Public(), reg),
			GDH:           core.NewGDHSEM(pp, reg),
			Pairing:       pp,
			AllowRegister: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(ln)
		}()
		t.Cleanup(func() {
			_ = srv.Close()
			wg.Wait()
		})
		proxy := newKillableProxy(t, ln.Addr().String())
		fl.proxies = append(fl.proxies, proxy)
		fl.addrs = append(fl.addrs, proxy.addr())
	}
	return fl
}

// proxyFor finds the proxy fronting a shard address.
func (fl *fleet) proxyFor(addr string) *killableProxy {
	for i, a := range fl.addrs {
		if a == addr {
			return fl.proxies[i]
		}
	}
	fl.t.Fatalf("no proxy for %s", addr)
	return nil
}

// enrollIBE split-extracts n identities and enrolls the SEM halves across
// the fleet through the sharded client (replica broadcast included).
func (fl *fleet) enrollIBE(sc *ShardedClient, n int) ([]string, []*core.UserKeyHalf) {
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
	errs, err := sc.RegisterIBEBatch(ids, ds)
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
	fl := newFleet(t, 3)
	reg := obs.NewRegistry()
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
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
	fl := newFleet(t, 2)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

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
	fl := newFleet(t, 3)
	reg := obs.NewRegistry()
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ids, _ := fl.enrollIBE(sc, 24)

	// Kill the shard owning the most identities.
	dist := sc.Ring().Distribution(ids)
	var victim string
	for addr, n := range dist {
		if victim == "" || n > dist[victim] {
			victim = addr
		}
	}
	proxy := fl.proxyFor(victim)
	proxy.setDown(true)
	proxy.killAll()

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
	p2 := fl.proxyFor(second)
	p2.setDown(true)
	p2.killAll()
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
// under failover: revocation broadcasts to every shard, so a revoked
// identity stays revoked even when its primary dies and a replica serves it.
func TestShardedRevocationSurvivesFailover(t *testing.T) {
	fl := newFleet(t, 3)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
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
	proxy := fl.proxyFor(primary)
	proxy.setDown(true)
	proxy.killAll()
	if _, err := sc.IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("token after primary death = %v, want ErrRevoked via replica", err)
	}

	// Others remain unaffected.
	if _, err := sc.IBEToken(ids[1], u); err != nil {
		t.Fatalf("unrevoked id failed: %v", err)
	}
}

func TestShardedClientClosed(t *testing.T) {
	fl := newFleet(t, 2)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
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
	fl := newFleet(t, 3)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2, Pool: PoolConfig{Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
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
				fl.proxies[0].killAll()
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
