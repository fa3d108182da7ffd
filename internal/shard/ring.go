// Package shard maps identities onto SEM shards with a consistent-hash
// ring. One SEM daemon serves one shard; the ring decides, purely
// client-side, which shard owns an identity and which shards stand behind
// it for failover.
//
// The mapping must be stable across processes and releases — the client
// that registered an identity and the client that decrypts with it five
// minutes later must land on the same shard — so the ring hashes with
// FNV-1a over the literal node name and identity string, never with
// anything seeded or randomized. Each node contributes a configurable
// number of virtual nodes so load spreads evenly even with few shards, and
// the replica order for an identity is the deterministic clockwise walk
// from its hash, skipping duplicates — the same failover sequence on every
// client.
//
// Rebalances (SetNodes) are measured, not guessed: the ring counts how
// many virtual-node points changed owner, which is the fraction of the
// identity space that moved — the churn a deployment pays for growing or
// shrinking the fleet.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// DefaultVirtualNodes is the per-node virtual-node count when the caller
// passes 0. 64 keeps the worst/best shard load ratio within a few percent
// for small fleets while the ring stays tiny (64·N points).
const DefaultVirtualNodes = 64

// ErrNoNodes is returned by New/SetNodes for an empty node list.
var ErrNoNodes = errors.New("shard: ring has no nodes")

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the index of the node that owns the arc ending at it.
type ringPoint struct {
	hash uint64
	node int32
}

// Ring is a consistent-hash ring over a set of named nodes (shard
// addresses). Safe for concurrent use; lookups take a read lock only.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  []string
	points []ringPoint // sorted by hash

	// Metrics are nil-safe: an uninstrumented ring records into live,
	// unregistered counters.
	lookups  *obs.Counter
	rebuilds *obs.Counter
	moved    *obs.Counter
	sizeG    *obs.Gauge
}

// New builds a ring over nodes (deduplicated, order-insensitive) with
// vnodes virtual nodes per node (0 selects DefaultVirtualNodes).
func New(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	if err := r.SetNodes(nodes); err != nil {
		return nil, err
	}
	return r, nil
}

// Instrument registers the ring's series with reg: shard_ring_lookups_total,
// shard_ring_rebuilds_total, shard_ring_moved_vnodes_total and the
// shard_ring_nodes gauge. Call before serving traffic.
func (r *Ring) Instrument(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups = reg.Counter("shard_ring_lookups_total", "identity→shard ring lookups")
	r.rebuilds = reg.Counter("shard_ring_rebuilds_total", "ring rebuilds (SetNodes calls)")
	r.moved = reg.Counter("shard_ring_moved_vnodes_total", "virtual nodes whose owner changed across rebuilds (rebalance churn)")
	r.sizeG = reg.Gauge("shard_ring_nodes", "nodes currently on the ring")
	r.sizeG.Set(int64(len(r.nodes)))
}

// hashString is the stable 64-bit FNV-1a the whole ring keys on.
func hashString(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
	}
	return h.Sum64()
}

// SetNodes replaces the node set and rebuilds the ring, recording how many
// virtual-node points changed owner (the rebalance churn). Duplicate names
// collapse to one node.
func (r *Ring) SetNodes(nodes []string) error {
	seen := make(map[string]bool, len(nodes))
	distinct := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] { //cryptolint:public (shard-name dedup; node names are deployment metadata)
			continue
		}
		seen[n] = true //cryptolint:public (shard-name dedup; node names are deployment metadata)
		distinct = append(distinct, n)
	}
	if len(distinct) == 0 {
		return ErrNoNodes
	}
	// Sort so the ring is identical no matter the order the caller listed
	// the fleet in — the stability guarantee is over the *set* of nodes.
	sort.Strings(distinct)

	points := make([]ringPoint, 0, len(distinct)*r.vnodes)
	for ni, name := range distinct {
		for v := 0; v < r.vnodes; v++ {
			points = append(points, ringPoint{
				hash: hashString(name, "#", strconv.Itoa(v)),
				node: int32(ni),
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (astronomically rare) break by node index so the ring
		// stays deterministic.
		return points[i].node < points[j].node
	})

	r.mu.Lock()
	defer r.mu.Unlock()
	// Churn: a virtual-node point stands for the arc of identity space
	// ending at it; count the old points whose owning *name* differs under
	// the new ring. On first build there is nothing to move.
	if len(r.points) > 0 {
		moved := 0
		for _, p := range r.points {
			oldName := r.nodes[p.node]
			newName := distinct[ownerOf(points, p.hash)]
			if oldName != newName { //cryptolint:public (rebalance-churn accounting on node names; deployment metadata)
				moved++
			}
		}
		if r.moved != nil {
			r.moved.Add(uint64(moved))
		}
	}
	if r.rebuilds != nil {
		r.rebuilds.Inc()
	}
	if r.sizeG != nil {
		r.sizeG.Set(int64(len(distinct)))
	}
	r.nodes = distinct
	r.points = points
	return nil
}

// ownerOf returns the node index of the first ring point at or clockwise
// of h (wrapping past the top of the circle).
func ownerOf(points []ringPoint, h uint64) int32 {
	i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	if i == len(points) {
		i = 0
	}
	return points[i].node
}

// Nodes returns the current node set (sorted, deduplicated).
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len reports the number of nodes on the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Lookup returns the node owning id — the shard every client must send
// this identity's operations to.
func (r *Ring) Lookup(id string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.lookups != nil {
		r.lookups.Inc()
	}
	return r.nodes[ownerOf(r.points, hashString(id))]
}

// leaderToken is the reserved key whose ring owner is the fleet's leader
// shard — the daemon that sequences revocation mutations for replication.
// The NUL bytes keep it out of the identity namespace (identities are
// caller-facing strings), so no identity can collide with the leader
// designation. Because the token is fixed and the ring is deterministic
// over the node *set*, every client and every daemon that knows the fleet
// list independently agrees on the same leader without coordination.
const leaderToken = "\x00repl-leader\x00"

// Leader returns the node designated as the fleet's revocation leader:
// the owner of a fixed reserved key. Deterministic for a given node set;
// changes only when a rebalance moves the token's arc.
//
// REBALANCE HAZARD: the designation is a pure function of the node *set*,
// while the daemon actually running as leader is fixed at startup by
// -repl-leader. Adding or removing any shard can silently move the token's
// arc onto a daemon running as a follower. sem.ShardedClient does not
// write through the designation — it resolves the leader by probing
// repl.status for the daemon whose status reports leadership — so
// mutations keep landing, but the designation stays wrong until the
// operator restarts the fleet with -repl-leader on the newly designated
// shard (and a bumped -repl-epoch).
func (r *Ring) Leader() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[ownerOf(r.points, hashString(leaderToken))]
}

// Replicas appends to dst the first k distinct nodes on the clockwise walk
// from id's hash: dst[0] is the owner (same node Lookup returns), the rest
// the deterministic failover order. k is clamped to the node count. The
// returned slice reuses dst's backing array, so a caller with a scratch
// slice performs no allocation.
func (r *Ring) Replicas(dst []string, id string, k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.lookups != nil {
		r.lookups.Inc()
	}
	if k <= 0 || k > len(r.nodes) {
		k = len(r.nodes)
	}
	dst = dst[:0]
	h := hashString(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(dst) < k; i++ {
		name := r.nodes[r.points[(start+i)%len(r.points)].node]
		if !containsStr(dst, name) {
			dst = append(dst, name)
		}
	}
	return dst
}

// containsStr is a linear scan; replica lists are ≤ the fleet size (single
// digits), where a map would cost more than it saves.
func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s { //cryptolint:public (replica-list membership on node names; deployment metadata)
			return true
		}
	}
	return false
}

// Distribution counts, per node, how many of the ids map to it — the
// load-skew introspection semload prints before a run.
func (r *Ring) Distribution(ids []string) map[string]int {
	out := make(map[string]int)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range ids {
		out[r.nodes[ownerOf(r.points, hashString(id))]]++ //cryptolint:public (load-skew introspection keyed by node name; deployment metadata)
	}
	return out
}

// String renders the ring topology for logs.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring{%d nodes, %d vnodes/node}", len(r.nodes), r.vnodes)
}
