package sem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/shard"
)

// ShardedClient routes SEM traffic across a fleet of shards: the typed
// operations of ops over a transport that picks shards. Identities map to
// shards by consistent hashing (stable under fleet growth), each shard is
// served by a multiplexed Pool, and per-identity ops fail over to the next
// ring replica when a shard dies mid-request. Batches split shard-aware: one
// sub-batch per owning shard, fanned in parallel, merged back in input order.
// What this type adds to ops is only routing policy: the replica walk, the
// shard-split batch, leader-routed revocation, replica-set enrollment, and
// the all-shard Ping/ListRevoked.
//
// Replica failover assumes the identity's key half is enrolled on every
// replica (the register ops do exactly that), and that every replica holds
// each acknowledged revocation: a fleet with a replication leader
// acknowledges one only once every follower applied it, and a fleet
// without one may serve each identity from one replica only (ErrNoLeader).
// Transport errors trigger failover; errors the server answered
// (ErrRemote) never do — a revoked identity stays revoked on the next
// replica too.
type ShardedClient struct {
	ops
	ring  *shard.Ring
	pools map[string]*Pool
	addrs []string //cryptolint:public (shard addresses; deployment metadata)
	reps  int
	met   *shardedMetrics

	// The fleet's revocation leader, resolved by the first mutation.
	leaderMu sync.Mutex
	leader   string //cryptolint:public (shard address; deployment metadata)
	resolved bool

	closed atomic.Bool
}

// ErrNoLeader is returned by Revoke/Unrevoke on a fleet that serves each
// identity from more than one replica but has no replication leader: no
// shard could acknowledge a mutation that every replica holds.
var ErrNoLeader = errors.New("sem: no revocation leader in a fleet with more than one replica per identity")

// ShardedConfig tunes a ShardedClient.
type ShardedConfig struct {
	// Replicas is how many ring replicas serve each identity (primary
	// first); ops fail over down this list on transport errors. ≤ 0
	// selects 1 (no failover). Above 1, Revoke/Unrevoke need a fleet with
	// a replication leader (ErrNoLeader).
	Replicas int
	// Pool tunes every per-shard pool. Pool.Metrics is overridden by
	// Metrics below.
	Pool PoolConfig
	// Metrics, when set, instruments the ring (shard_ring_*), the fleet's
	// pools (sempool_*, aggregated across shards) and the sharded client
	// itself (shardclient_*).
	Metrics *obs.Registry
}

type shardedMetrics struct {
	failovers    *obs.Counter
	shardBatches *obs.Counter
	leaderProbes *obs.Counter
}

func newShardedMetrics(reg *obs.Registry) *shardedMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &shardedMetrics{
		failovers:    reg.Counter("shardclient_failovers_total", "per-identity ops retried on the next ring replica after a transport failure"),
		shardBatches: reg.Counter("shardclient_shard_batches_total", "per-shard sub-batches dispatched by sharded batch splitting"),
		leaderProbes: reg.Counter("shardclient_leader_probes_total", "repl.status probes issued to locate the fleet's revocation leader"),
	}
}

// NewShardedClient builds a client over the given shard addresses. No
// connection is dialed until the first operation. pp may be nil when only
// RSA/admin ops will be used.
func NewShardedClient(addrs []string, pp *pairing.Params, cfg ShardedConfig) (*ShardedClient, error) {
	ring, err := shard.New(addrs, shard.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		ring.Instrument(cfg.Metrics)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > ring.Len() {
		cfg.Replicas = ring.Len()
	}
	poolCfg := cfg.Pool
	poolCfg.Metrics = cfg.Metrics
	sc := &ShardedClient{
		ring:  ring,
		pools: make(map[string]*Pool, len(addrs)),
		addrs: ring.Nodes(),
		reps:  cfg.Replicas,
		met:   newShardedMetrics(cfg.Metrics),
	}
	sc.ops = ops{t: sc, pp: pp}
	for _, addr := range sc.addrs {
		sc.pools[addr] = NewPool(addr, pp, poolCfg)
	}
	return sc, nil
}

// Ring exposes the routing ring (read-only use: Lookup/Distribution).
func (sc *ShardedClient) Ring() *shard.Ring { return sc.ring }

// Addrs reports the fleet's shard addresses (sorted, deduplicated).
func (sc *ShardedClient) Addrs() []string {
	return append([]string(nil), sc.addrs...)
}

// Close tears down every shard pool. Idempotent.
func (sc *ShardedClient) Close() error {
	if sc.closed.Swap(true) {
		return nil
	}
	for _, p := range sc.pools {
		_ = p.Close()
	}
	return nil
}

// replicasFor returns the ring replica addresses serving id, primary first.
func (sc *ShardedClient) replicasFor(dst []string, id string) []string {
	return sc.ring.Replicas(dst, id, sc.reps)
}

// one routes a single item (the transport contract) by what the op is:
// revocation mutations go through the fleet's leader, enrollment to the
// identity's whole replica set, and everything else down a replica list,
// failing over on transport errors — the identity's ring replicas, primary
// first, or for the identity-less replication ops just the ring's leader
// shard (the fleet's revocation write path). Errors the server answered
// (ErrRemote) and our own close (ErrClientClosed) return immediately —
// retrying those elsewhere is useless or wrong.
func (sc *ShardedClient) one(op byte, id string, payload []byte) ([]byte, error) {
	if sc.closed.Load() {
		return nil, ErrClientClosed
	}
	var scratch [4]string
	var reps []string
	switch op {
	case opRevoke, opUnrevoke:
		return nil, sc.leaderMutate(op, id, payload)
	case opRegisterIBE, opRegisterGDH:
		_, errs, err := sc.many(op, []string{id}, [][]byte{payload})
		if err == nil {
			err = errs[0]
		}
		return nil, err
	case opReplStatus, opReplAppend, opReplSnapshot:
		reps = append(scratch[:0], sc.ring.Leader())
	default:
		reps = sc.replicasFor(scratch[:0], id)
	}
	var lastErr error
	for i, addr := range reps {
		if i > 0 {
			sc.met.failovers.Inc()
		}
		raw, err := sc.pools[addr].one(op, id, payload) //cryptolint:public (replica-walk routing on shard addresses; deployment metadata)
		if err == nil {
			return raw, nil
		}
		if errors.Is(err, ErrRemote) || errors.Is(err, ErrClientClosed) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("sem: all %d replicas for %q failed: %w", len(reps), id, lastErr) //cryptolint:public (identities are public protocol metadata, not key material)
}

// many routes a batch (the transport contract): split the items by owning
// shard, fan one sub-batch per shard in parallel, and on shard failure
// retry the voided slots on each item's next ring replica. Register ops
// instead broadcast every item to its full replica set (enrollment must
// land everywhere failover can read from). Results and errs come back in
// input order.
func (sc *ShardedClient) many(op byte, ids []string, payloads [][]byte) ([][]byte, []error, error) {
	if sc.closed.Load() {
		return nil, nil, ErrClientClosed
	}
	results := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	if len(ids) == 0 {
		return results, errs, nil
	}
	if op == opRegisterIBE || op == opRegisterGDH {
		err := sc.broadcastRegister(op, ids, payloads, errs)
		return results, errs, err
	}

	pending := make([]int, len(ids))
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt < sc.reps && len(pending) > 0; attempt++ {
		if attempt > 0 {
			sc.met.failovers.Add(uint64(len(pending)))
		}
		groups, order := sc.groupByReplica(ids, pending, attempt)
		parallel.FanChunks(len(order), func(lo, hi int) {
			for g := lo; g < hi; g++ {
				sc.runShardBatch(op, order[g], groups[order[g]], ids, payloads, results, errs) //cryptolint:public (fan-out over shard-address groups; deployment metadata)
			}
		})
		// Slots that failed in transport stay pending for the next replica;
		// ok slots and server-answered errors are settled.
		next := pending[:0]
		for _, i := range pending {
			if errs[i] != nil && !errors.Is(errs[i], ErrRemote) && !errors.Is(errs[i], ErrClientClosed) {
				next = append(next, i)
			}
		}
		pending = next
	}
	var err error
	for _, i := range pending {
		if errs[i] != nil {
			err = errs[i]
			break
		}
	}
	return results, errs, err
}

// groupByReplica buckets the pending input slots by the shard serving each
// identity at the given replica attempt. Identities with fewer replicas
// than attempt keep their existing error.
func (sc *ShardedClient) groupByReplica(ids []string, pending []int, attempt int) (map[string][]int, []string) {
	groups := make(map[string][]int)
	var order []string
	var scratch [4]string
	for _, i := range pending {
		reps := sc.replicasFor(scratch[:0], ids[i])
		if attempt >= len(reps) {
			continue
		}
		addr := reps[attempt]
		if _, ok := groups[addr]; !ok { //cryptolint:public (grouping by shard address; deployment metadata)
			order = append(order, addr)
		}
		groups[addr] = append(groups[addr], i) //cryptolint:public (grouping by shard address; deployment metadata)
	}
	return groups, order
}

// runShardBatch runs one shard's sub-batch and writes its slots of the
// result arrays (disjoint across shards, so concurrent writers are safe).
func (sc *ShardedClient) runShardBatch(op byte, addr string, idxs []int, ids []string, payloads [][]byte, results [][]byte, errs []error) {
	sc.met.shardBatches.Inc()
	subIDs := make([]string, len(idxs))
	subPayloads := make([][]byte, len(idxs))
	for j, i := range idxs {
		subIDs[j] = ids[i]
		subPayloads[j] = payloads[i]
	}
	subResults, subErrs, _ := sc.pools[addr].many(op, subIDs, subPayloads) //cryptolint:public (pool lookup by shard address; deployment metadata)
	for j, i := range idxs {
		// A transport failure is already stamped into every slot it voided.
		results[i], errs[i] = subResults[j], subErrs[j]
	}
}

// broadcastRegister enrolls every item on its full replica set: failover
// reads from any replica, so enrollment is complete only when all of them
// hold the key half. An item's error is its first failing replica's.
func (sc *ShardedClient) broadcastRegister(op byte, ids []string, payloads [][]byte, errs []error) error {
	// One pass per replica rank reuses the shard-batch machinery; every
	// rank must succeed for an item to be cleanly enrolled.
	all := make([]int, len(ids))
	for i := range all {
		all[i] = i
	}
	rankErrs := make([]error, len(ids))
	for attempt := 0; attempt < sc.reps; attempt++ {
		groups, order := sc.groupByReplica(ids, all, attempt)
		for i := range rankErrs {
			rankErrs[i] = nil
		}
		parallel.FanChunks(len(order), func(lo, hi int) {
			for g := lo; g < hi; g++ {
				sc.runShardBatch(op, order[g], groups[order[g]], ids, payloads, make([][]byte, len(ids)), rankErrs) //cryptolint:public (fan-out over shard-address groups; deployment metadata)
			}
		})
		for i, e := range rankErrs {
			if e != nil && errs[i] == nil {
				errs[i] = e
			}
		}
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrRemote) {
			return e
		}
	}
	return nil
}

// Ping checks liveness of every shard in the fleet.
func (sc *ShardedClient) Ping() error {
	if sc.closed.Load() {
		return ErrClientClosed
	}
	errsByShard := make([]error, len(sc.addrs))
	parallel.Fan(len(sc.addrs), func(i int) {
		errsByShard[i] = sc.pools[sc.addrs[i]].Ping()
	})
	for i, err := range errsByShard {
		if err != nil {
			return fmt.Errorf("sem: shard %s: %w", sc.addrs[i], err)
		}
	}
	return nil
}

// ListRevoked unions the revocation lists of every shard, deduplicated by
// identity (a replicated fleet's shards agree on every acknowledged
// revocation; without a leader each shard holds its own identities'). Every
// shard must answer — an unreachable shard fails the query, since its
// entries could be missing from the union. Partial-list parse errors are
// tolerated per shard and surface once alongside the merged entries.
func (sc *ShardedClient) ListRevoked() ([]core.RevocationEntry, error) {
	if sc.closed.Load() {
		return nil, ErrClientClosed
	}
	lists := make([][]core.RevocationEntry, len(sc.addrs))
	errsByShard := make([]error, len(sc.addrs))
	parallel.Fan(len(sc.addrs), func(i int) {
		lists[i], errsByShard[i] = sc.pools[sc.addrs[i]].ListRevoked()
	})
	var partial error
	for i, err := range errsByShard {
		if errors.Is(err, ErrPartialList) {
			partial = err
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("sem: shard %s: %w", sc.addrs[i], err)
		}
	}
	seen := make(map[string]bool)
	var merged []core.RevocationEntry
	for _, list := range lists {
		for _, e := range list {
			if !seen[e.ID] {
				seen[e.ID] = true
				merged = append(merged, e)
			}
		}
	}
	return merged, partial
}

// LeaderAddr reports the shard the ring *designates* as the fleet's
// revocation write path — where cmd/semd's -repl-leader should run. Note
// the rebalance hazard documented on shard.Ring.Leader: after the fleet
// list changes, this designation can differ from the daemon actually
// running as leader. Mutations do not depend on it: they go to the daemon
// that reports itself leader (leaderMutate).
func (sc *ShardedClient) LeaderAddr() string { return sc.ring.Leader() }

// probeLeader asks every shard for its replication status and returns the
// first daemon reporting itself as the fleet's active leader, or "" when
// none does.
func (sc *ShardedClient) probeLeader() string {
	for _, addr := range sc.addrs {
		sc.met.leaderProbes.Inc()
		raw, err := sc.pools[addr].one(opReplStatus, "", nil)
		if err != nil {
			continue // down or replication-less shards simply aren't the leader
		}
		st, err := repl.ParseStatus(raw)
		if err != nil || !st.Leader {
			continue
		}
		return addr
	}
	return ""
}

// resolveLeader returns the fleet's revocation leader ("" for none): the
// cached answer, or with refresh or on first use a fresh probe, in which
// case probed is true.
func (sc *ShardedClient) resolveLeader(refresh bool) (leader string, probed bool) {
	sc.leaderMu.Lock()
	defer sc.leaderMu.Unlock()
	if sc.resolved && !refresh {
		return sc.leader, false
	}
	sc.leader, sc.resolved = sc.probeLeader(), true
	return sc.leader, true
}

// leaderMutate performs a revocation mutation (Revoke/Unrevoke). In a
// fleet with a replication leader it goes to the leader, which answers
// once every follower holds it; in a fleet without one it goes to the
// identity's one replica like any other op, and with more than one replica
// per identity it fails with ErrNoLeader. The leader is resolved once and
// cached; a cached answer that fails — not_leader, no leader, or a
// transport failure — is resolved afresh and the mutation retried once.
func (sc *ShardedClient) leaderMutate(op byte, id string, payload []byte) error {
	leader, probed := sc.resolveLeader(false)
	err := sc.mutateAt(leader, op, id, payload)
	if probed || err == nil || errors.Is(err, ErrClientClosed) {
		return err
	}
	if errors.Is(err, ErrRemote) && !errors.Is(err, repl.ErrNotLeader) {
		return err // the leader answered: not_replicated, a journal failure
	}
	leader, _ = sc.resolveLeader(true)
	return sc.mutateAt(leader, op, id, payload)
}

// mutateAt sends a mutation to leader, or without one to id's shard.
func (sc *ShardedClient) mutateAt(leader string, op byte, id string, payload []byte) error {
	addr := leader
	if addr == "" { //cryptolint:public (no-leader test on a shard address; deployment metadata)
		if sc.reps > 1 {
			return ErrNoLeader
		}
		addr = sc.ring.Lookup(id)
	}
	if _, err := sc.pools[addr].one(op, id, payload); err != nil { //cryptolint:public (leader routing on shard addresses; deployment metadata)
		return fmt.Errorf("sem: shard %s: %w", addr, err) //cryptolint:public (shard address in an operator-facing error; deployment metadata)
	}
	return nil
}
