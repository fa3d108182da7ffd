package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pairing"
	"repro/internal/sem"
)

// Serving-layer baseline entries: the token-op hot path measured through
// the client transports against a local semd-style fleet —
//
//	sem.token.conn.c32     32 callers sharing a one-connection sem.Pool (what sem.Dial returns)
//	sem.token.pooled.c32   32 callers sharing a default-size sem.Pool (coalesced frames)
//	cluster.token.shard1.c32  sharded client over a 1-shard fleet
//	cluster.token.shard4.c32  sharded client over a 4-shard fleet
//
// All run at toy parameters with Workers=1 per shard, so the numbers
// isolate the serving layer (framing, syscalls, scheduling) rather than
// pairing arithmetic, and stay meaningful on a single-core host — where
// shard scaling measures routing overhead, not parallel speedup.

// servingConcurrency is the closed-loop caller count for every entry.
const servingConcurrency = 32

// servingFleet is a local multi-shard SEM deployment for transport
// benchmarks: every shard serves the same identity set, so any routing is
// valid.
type servingFleet struct {
	pp      *pairing.Params
	ids     []string
	addrs   []string
	servers []*sem.Server
}

func newServingFleet(nShards, nIDs int) (*servingFleet, error) {
	pp, err := pairing.Toy()
	if err != nil {
		return nil, err
	}
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, 32)
	if err != nil {
		return nil, err
	}
	f := &servingFleet{pp: pp}
	halves := make([]*core.SEMKeyHalf, nIDs)
	for i := 0; i < nIDs; i++ {
		id := fmt.Sprintf("bench%03d@serving", i)
		_, half, err := pkg.SplitExtract(rand.Reader, id)
		if err != nil {
			return nil, err
		}
		f.ids = append(f.ids, id)
		halves[i] = half
	}
	for s := 0; s < nShards; s++ {
		reg := core.NewRegistry()
		ibe := core.NewIBESEM(pkg.Public(), reg)
		for _, h := range halves {
			ibe.Register(h)
		}
		srv, err := sem.NewServer(sem.Config{
			Registry: reg,
			IBE:      ibe,
			Pairing:  pp,
			Workers:  1,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		go func() { _ = srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	return f, nil
}

func (f *servingFleet) Close() {
	for _, s := range f.servers {
		_ = s.Close()
	}
}

// closedLoop drives op from servingConcurrency workers for the window and
// returns (total ops, wall ns/op). Worker w cycles through the identity
// set starting at a w-dependent offset so the per-identity pairing caches
// see realistic mixed traffic.
func (f *servingFleet) closedLoop(d time.Duration, op func(id string) error) (int64, float64, error) {
	// Warm-up: dials, v2 negotiation and cache fills stay out of the window.
	for i := 0; i < servingConcurrency; i++ {
		if err := op(f.ids[i%len(f.ids)]); err != nil {
			return 0, 0, err
		}
	}
	var ops atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < servingConcurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(f.ids[i%len(f.ids)]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if v := firstErr.Load(); v != nil {
		return 0, 0, v.(error)
	}
	n := ops.Load()
	if n == 0 {
		return 0, 0, fmt.Errorf("bench: no serving ops completed in %v", d)
	}
	return n, float64(elapsed.Nanoseconds()) / float64(n), nil
}

// ServingEntries measures the serving-layer transports and returns
// baseline entries (ns per token op at 32-way concurrency, wall-clock
// aggregate). window is the per-entry measurement window.
func ServingEntries(window time.Duration) ([]BaselineEntry, error) {
	if window <= 0 {
		window = 500 * time.Millisecond
	}
	fleet, err := newServingFleet(4, 64)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	u := fleet.pp.Generator()

	var entries []BaselineEntry
	add := func(name string, op func(id string) error) error {
		n, nsPerOp, err := fleet.closedLoop(window, op)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		entries = append(entries, BaselineEntry{Name: name, NsPerOp: nsPerOp, Iters: int(n)})
		return nil
	}

	// One multiplexed connection shared by every caller: what sem.Dial
	// hands out, and the comparison point for the default-size pool.
	conn := sem.NewPool(fleet.addrs[0], fleet.pp, sem.PoolConfig{Size: 1})
	err = add("sem.token.conn.c32", func(id string) error {
		_, err := conn.IBEToken(id, u)
		return err
	})
	_ = conn.Close()
	if err != nil {
		return nil, err
	}

	// Multiplexed pool (default size): callers coalesce into shared frames.
	pool := sem.NewPool(fleet.addrs[0], fleet.pp, sem.PoolConfig{})
	err = add("sem.token.pooled.c32", func(id string) error {
		_, err := pool.IBEToken(id, u)
		return err
	})
	_ = pool.Close()
	if err != nil {
		return nil, err
	}

	// Sharded client over 1 and 4 shards: the shard-scaling curve. On a
	// multi-core host the 4-shard number shows near-linear scaling; on one
	// core it measures pure routing overhead.
	for _, nShards := range []int{1, 4} {
		sc, err := sem.NewShardedClient(fleet.addrs[:nShards], fleet.pp, sem.ShardedConfig{})
		if err != nil {
			return nil, err
		}
		err = add(fmt.Sprintf("cluster.token.shard%d.c32", nShards), func(id string) error {
			_, err := sc.IBEToken(id, u)
			return err
		})
		_ = sc.Close()
		if err != nil {
			return nil, err
		}
	}
	return entries, nil
}
