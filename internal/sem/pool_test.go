package sem

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/wire"
)

// poolFleet is a one-shard fleet with one identity enrolled, and a pool of
// cfg to it, closed with the test.
func poolFleet(t *testing.T, cfg PoolConfig) (*fleet, *Pool, string) {
	t.Helper()
	fl := newFleet(t, 1, fleetConfig{})
	cfg.Dial = fl.net.Dialer("client")
	pool := NewPool(fl.addrs[0], fl.pp, cfg)
	t.Cleanup(func() { _ = pool.Close() })
	ids, _ := fl.enrollIBE(pool, 1)
	return fl, pool, ids[0]
}

func TestPoolOpsEndToEnd(t *testing.T) {
	f := newFixture(t)
	pool := NewPool(f.addr, f.pp, PoolConfig{Size: 2})
	defer pool.Close()

	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}
	// Token through the pool matches the direct client's token.
	u := f.pp.Generator()
	want, err := f.client.IBEToken(testID, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.IBEToken(testID, u)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("pool token differs from client token")
	}

	// Admin plumbing.
	if err := pool.Revoke(testID, "pool test"); err != nil {
		t.Fatal(err)
	}
	revoked, err := pool.Status(testID)
	if err != nil || !revoked {
		t.Fatalf("status after revoke = %v, %v", revoked, err)
	}
	if _, err := pool.IBEToken(testID, u); !errors.Is(err, ErrRemote) {
		t.Fatalf("token for revoked id = %v, want remote error", err)
	}
	if err := pool.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}
}

func TestPoolBatchAndPartialErrors(t *testing.T) {
	f := newFixture(t)
	pool := NewPool(f.addr, f.pp, PoolConfig{Size: 1})
	defer pool.Close()

	u := f.pp.Generator()
	ids := []string{testID, "ghost@example.com", testID}
	tokens, errs, err := pool.TokenBatch(ids, []*curve.Point{u, u, u})
	if err != nil {
		t.Fatal(err)
	}
	if tokens[0] == nil || tokens[2] == nil {
		t.Fatal("known ids missing tokens")
	}
	if !errors.Is(errs[1], ErrRemote) || !errors.Is(errs[1], core.ErrUnknownIdentity) {
		t.Fatalf("ghost id err = %v, want remote unknown-identity", errs[1])
	}
}

// TestPoolCoalescing drives many concurrent single ops through a one-conn
// pool and checks that the dispatcher folded them into shared frames — the
// mechanism the pooled client's throughput comes from.
func TestPoolCoalescing(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	pool := NewPool(f.addr, f.pp, PoolConfig{Size: 1, Metrics: reg})
	defer pool.Close()

	const workers, perWorker = 16, 8
	u := f.pp.Generator()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := pool.IBEToken(testID, u); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d ops failed", n)
	}
	frames := pool.met.frames.Value()
	items := pool.met.frameItems.Value()
	if items != workers*perWorker {
		t.Fatalf("frameItems = %d, want %d", items, workers*perWorker)
	}
	// Demand real coalescing, not a lucky pairing: with 16 workers on one
	// connection the average frame must carry at least 2 items.
	if frames*2 > items {
		t.Fatalf("no coalescing: %d frames for %d items", frames, items)
	}
	t.Logf("coalescing: %d items in %d frames (%.1f items/frame)", items, frames, float64(items)/float64(frames))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sempool_frames_total", "sempool_conns", "sempool_dials_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPoolEvictionAndRedial severs the pool's connection mid-life and
// checks the pool evicts it, re-dials, and completes the next op — with
// the in-call retry making the kill invisible to the caller.
func TestPoolEvictionAndRedial(t *testing.T) {
	fl, pool, id := poolFleet(t, PoolConfig{Size: 1})
	u := fl.pp.Generator()
	if _, err := pool.IBEToken(id, u); err != nil {
		t.Fatal(err)
	}
	fl.sever(fl.addrs[0])
	// The next op may land on the dead conn; the pool must absorb that via
	// eviction + retry on a fresh dial.
	if _, err := pool.IBEToken(id, u); err != nil {
		t.Fatalf("op after connection kill: %v", err)
	}
	if ev := pool.met.evictions.Value(); ev < 1 {
		t.Fatalf("evictions = %d, want ≥ 1", ev)
	}
	if d := pool.met.dials.Value(); d < 2 {
		t.Fatalf("dials = %d, want ≥ 2", d)
	}
}

// TestPoolBackendDown checks error classification when the fleet is truly
// unreachable: a transport error, never ErrRemote, never ErrClientClosed.
func TestPoolBackendDown(t *testing.T) {
	fl, pool, id := poolFleet(t, PoolConfig{Size: 1})
	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}
	fl.net.Partition("client", fl.addrs[0])
	_, err := pool.IBEToken(id, fl.pp.Generator())
	if err == nil {
		t.Fatal("op against downed backend succeeded")
	}
	if errors.Is(err, ErrRemote) || errors.Is(err, ErrClientClosed) {
		t.Fatalf("downed-backend error misclassified: %v", err)
	}
	// Recovery: the shard reachable again, next op succeeds.
	fl.net.Heal("client", fl.addrs[0])
	if _, err := pool.IBEToken(id, fl.pp.Generator()); err != nil {
		t.Fatalf("op after backend recovery: %v", err)
	}
}

// TestPoolClosed checks the close contract: idempotent, and every op after
// Close (including ones racing it) reports ErrClientClosed.
func TestPoolClosed(t *testing.T) {
	f := newFixture(t)
	pool := NewPool(f.addr, f.pp, PoolConfig{Size: 2})
	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := pool.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := pool.TokenBatch([]string{testID}, []*curve.Point{f.pp.Generator()}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("TokenBatch after Close = %v, want ErrClientClosed", err)
	}
}

// TestPoolChurnRace hammers a pool with concurrent ops while another
// goroutine repeatedly severs every connection — checkout, eviction and
// re-dial racing under -race. Ops may fail (the backend is being shot),
// but failures must never be misclassified as remote errors.
func TestPoolChurnRace(t *testing.T) {
	fl, pool, id := poolFleet(t, PoolConfig{Size: 3, OpTimeout: 2 * time.Second})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	u := fl.pp.Generator()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := pool.IBEToken(id, u)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrRemote):
					t.Errorf("churn produced a remote error: %v", err)
					return
				default:
					failed.Add(1)
				}
			}
		}(w)
	}
	killer := time.NewTicker(10 * time.Millisecond)
	deadline := time.After(500 * time.Millisecond)
loop:
	for {
		select {
		case <-killer.C:
			fl.sever(fl.addrs[0])
		case <-deadline:
			break loop
		}
	}
	killer.Stop()
	close(stop)
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatalf("no op ever succeeded under churn (failed=%d)", failed.Load())
	}
	t.Logf("churn: %d ok, %d transport failures, %d evictions, %d dials",
		ok.Load(), failed.Load(), pool.met.evictions.Value(), pool.met.dials.Value())
}

// TestPoolCoalescingRespectsFrameCap is the regression test for merging by
// item count alone: 64 concurrent 32 KiB calls fit the default 1 MiB cap
// one by one but not merged, so the dispatcher must stop a frame before the
// cap instead of failing every caller it merged — while a call that alone
// exceeds the cap still gets the typed error, and keeps its connection.
func TestPoolCoalescingRespectsFrameCap(t *testing.T) {
	addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
		answerFrames(conn, func(_ byte, items []wire.ReqItem) []wire.RespItem {
			resp := make([]wire.RespItem, len(items))
			for i, it := range items {
				resp[i] = wire.RespItem{Status: statusOK, Data: it.Payload[:min(1, len(it.Payload))]}
			}
			return resp
		})
	})
	pool := NewPool(addr, nil, PoolConfig{Size: 1, HealthInterval: -1})
	defer func() { _ = pool.Close() }()
	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}

	const calls = 64
	// Several rounds: coalescing depends on callers actually piling up
	// behind the dispatcher, so keep going until a round demonstrably
	// merged (every round must succeed either way).
	for round := 0; ; round++ {
		before := pool.met.frames.Value()
		start := make(chan struct{})
		errs := make(chan error, calls)
		for i := 0; i < calls; i++ {
			go func(i int) {
				payload := bytes.Repeat([]byte{byte(i)}, 32<<10)
				<-start
				got, err := pool.one(opRSASign, "big", payload)
				if err == nil && !bytes.Equal(got, payload[:1]) {
					err = fmt.Errorf("call %d got another call's answer %x", i, got)
				}
				errs <- err
			}(i)
		}
		close(start)
		for i := 0; i < calls; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: a call that fits the cap alone failed once merged: %v", round, err)
			}
		}
		frames := pool.met.frames.Value() - before
		if frames < calls {
			// 64 × 32 KiB is 2 MiB: merged, but never into fewer than 3 frames.
			if frames < 3 {
				t.Fatalf("round %d: %d frames carried 2 MiB under a 1 MiB cap", round, frames)
			}
			t.Logf("round %d: %d calls rode %d frames", round, calls, frames)
			break
		}
		if round == 20 {
			t.Fatal("no round coalesced; the test never exercised the cap")
		}
	}

	dials := pool.met.dials.Value()
	if _, err := pool.one(opRSASign, "huge", make([]byte, DefaultMaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap call: %v, want ErrFrameTooLarge", err)
	}
	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := pool.met.dials.Value(); d != dials {
		t.Fatalf("over-cap call cost the connection: dials %d → %d", dials, d)
	}
}
