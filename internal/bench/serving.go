package bench

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
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
	servers loopback
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
		addr, err := f.servers.serve(srv)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

func (f *servingFleet) Close() { _ = f.servers.close() }

// loopback is servers on loopback TCP listeners, closed together: the
// transport every serving and baseline entry times.
type loopback []interface{ Close() error }

// serve starts s on a fresh loopback listener and returns its address.
func (l *loopback) serve(s interface {
	Serve(net.Listener) error
	Close() error
}) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	*l = append(*l, s)
	go func() { _ = s.Serve(ln) }()
	return ln.Addr().String(), nil
}

func (l loopback) close() error {
	var errs []error
	for _, s := range l {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// ServingEntries measures the serving-layer transports and returns
// baseline entries (ns per token op at 32-way concurrency, wall-clock
// aggregate). window is the per-entry measurement window.
func ServingEntries(window time.Duration) ([]BaselineEntry, error) {
	fleet, err := newServingFleet(4, 64)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	u := fleet.pp.Generator()

	var entries []BaselineEntry
	// Worker w cycles through the identity set from a w-dependent offset, so
	// the per-identity pairing caches see mixed traffic.
	add := func(name string, op func(id string) error) error {
		// Warm-up: dials, negotiation and cache fills stay out of the window.
		for i := 0; i < servingConcurrency; i++ {
			if err := op(fleet.ids[i%len(fleet.ids)]); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		n, elapsed, err := closedLoop(servingConcurrency, window, func(w, i int) (int, error) {
			return 1, op(fleet.ids[(w+i)%len(fleet.ids)])
		})
		if err == nil && n == 0 {
			err = fmt.Errorf("no ops completed in %v", window)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		entries = append(entries, BaselineEntry{Name: name, NsPerOp: float64(elapsed.Nanoseconds()) / float64(n), Iters: int(n)})
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
