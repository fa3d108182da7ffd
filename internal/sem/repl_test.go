package sem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/shard"
)

func tmpJournal(t *testing.T) *core.Journal {
	t.Helper()
	j, err := core.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplOpsOverTheWire drives the three repl.* ops through a real
// server and client: status reflects applied appends, records land in the
// follower's journal, and the typed refusals (stale epoch, sequence gap)
// survive the protocol round trip as errors.Is-able sentinels.
func TestReplOpsOverTheWire(t *testing.T) {
	fl := newFleet(t, 1, fleetConfig{journaled: true})
	c := fl.client(fl.addrs[0])
	if epoch, seq, err := c.ReplStatus(); err != nil || epoch != 0 || seq != 0 {
		t.Fatalf("fresh status = %d/%d, %v", epoch, seq, err)
	}
	when := time.Now().UTC().Truncate(time.Nanosecond)
	recs := []core.ReplRecord{
		{Seq: 1, Epoch: 2, Op: "revoke", ID: "a@x", Reason: "first", When: when},
		{Seq: 2, Epoch: 2, Op: "revoke", ID: "b@x", Reason: "second", When: when},
		{Seq: 3, Epoch: 2, Op: "unrevoke", ID: "a@x", When: when},
	}
	if err := c.ReplAppend(2, recs); err != nil {
		t.Fatal(err)
	}
	if epoch, seq, err := c.ReplStatus(); err != nil || epoch != 2 || seq != 3 {
		t.Fatalf("status after append = %d/%d, %v; want 2/3", epoch, seq, err)
	}
	reg := fl.journals[fl.addrs[0]].Registry()
	if reg.IsRevoked("a@x") || !reg.IsRevoked("b@x") {
		t.Fatal("appended records not applied")
	}

	// Stale sender: the wire must hand back something errors.Is-able.
	err := c.ReplAppend(1, []core.ReplRecord{{Seq: 4, Epoch: 1, Op: "revoke", ID: "z@x", When: when}})
	if !errors.Is(err, repl.ErrStaleEpoch) {
		t.Fatalf("stale append error = %v, want repl.ErrStaleEpoch", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Errorf("stale append error %v should also wrap ErrRemote (server answered)", err)
	}
	// Gapped batch: same discipline for ErrSeqGap.
	err = c.ReplAppend(2, []core.ReplRecord{{Seq: 9, Epoch: 2, Op: "revoke", ID: "z@x", When: when}})
	if !errors.Is(err, repl.ErrSeqGap) {
		t.Fatalf("gapped append error = %v, want repl.ErrSeqGap", err)
	}

	// The journal has adopted epoch 2, so this daemon is a replication
	// follower now: direct mutations are refused with a typed not_leader
	// error instead of forking the leader's sequence numbering.
	if err := c.Revoke("direct@x", "forbidden"); !errors.Is(err, repl.ErrNotLeader) {
		t.Fatalf("direct revoke on a follower = %v, want repl.ErrNotLeader", err)
	}
	if err := c.Unrevoke("b@x"); !errors.Is(err, repl.ErrNotLeader) {
		t.Fatalf("direct unrevoke on a follower = %v, want repl.ErrNotLeader", err)
	}
	if reg.IsRevoked("direct@x") {
		t.Fatal("refused mutation was applied anyway")
	}

	// Snapshot transfer replaces the state wholesale.
	if err := c.ReplSnapshot(&repl.SnapshotChunk{
		Epoch:   3,
		BaseSeq: 50,
		Total:   1,
		Index:   0,
		Chunks:  1,
		Entries: []core.RevocationEntry{{ID: "snap@x", Reason: "installed", When: when}},
	}); err != nil {
		t.Fatal(err)
	}
	if epoch, seq, err := c.ReplStatus(); err != nil || epoch != 3 || seq != 50 {
		t.Fatalf("status after snapshot = %d/%d, %v; want 3/50", epoch, seq, err)
	}
	if !reg.IsRevoked("snap@x") || reg.IsRevoked("b@x") {
		t.Error("snapshot not installed")
	}
}

// TestReplOpsRequireJournal: a daemon without a journal answers repl ops
// with a typed refusal instead of a crash or silent success.
func TestReplOpsRequireJournal(t *testing.T) {
	f := newFixture(t) // journal-less fixture from sem_test.go
	if _, _, err := f.client.ReplStatus(); err == nil {
		t.Fatal("repl.status accepted without a journal")
	} else if !errors.Is(err, ErrRemote) {
		t.Errorf("refusal %v should be a remote (server-answered) error", err)
	}
	if err := f.client.ReplAppend(1, []core.ReplRecord{{Seq: 1, Epoch: 1, Op: "revoke", ID: "a@x", When: time.Now()}}); err == nil {
		t.Fatal("repl.append accepted without a journal")
	}
}

// TestReplLeaderOverSockets is replication end to end at package level,
// over the SEM protocol between two daemons: a leader daemon replicates
// Revokes (issued by an ordinary client against the leader) to a follower
// daemon, and acknowledges each only once the follower holds it; the
// follower then refuses the revoked identity like the paper demands.
func TestReplLeaderOverSockets(t *testing.T) {
	fl := newFleet(t, 2, fleetConfig{leader: "shard-1"})
	c := fl.client("shard-1")
	for i := 0; i < 10; i++ {
		if err := c.Revoke(fmt.Sprintf("id%02d@x", i), "e2e"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Unrevoke("id00@x"); err != nil {
		t.Fatal(err)
	}
	follower := fl.journals["shard-2"]
	if seq := follower.LastSeq(); seq != 11 {
		t.Fatalf("the follower stands at seq %d when the acknowledged calls return, want 11", seq)
	}
	freg := follower.Registry()
	if freg.IsRevoked("id00@x") || !freg.IsRevoked("id09@x") {
		t.Fatal("follower state diverged from leader")
	}
	// The follower itself now refuses the revoked identity.
	fc := fl.client("shard-2")
	if _, err := fc.IBEToken("id09@x", fl.pp.Generator()); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("follower served revoked identity: %v", err)
	}
	// And it refuses to take direct mutations now that it follows a leader.
	if err := fc.Revoke("direct@x", "forbidden"); !errors.Is(err, repl.ErrNotLeader) {
		t.Fatalf("direct revoke on the follower = %v, want repl.ErrNotLeader", err)
	}
}

// ringLeader is the shard the ring designates as revocation leader in an
// n-shard fleet.
func ringLeader(t *testing.T, n int) string {
	t.Helper()
	ring, err := shard.New(shardNames(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ring.Leader()
}

// TestRevokeFailsAcrossLeaderFollowerPartition checks invariant I1 (DESIGN
// §7 row 2) where a fleet breaks it most easily: a follower cut off from its
// leader but not from clients. The leader acknowledges a revoke only once every
// follower holds it (ROADMAP item 30), so across the partition
// ShardedClient.Revoke fails with repl.ErrNotReplicated naming the
// follower, and the follower, still serving, never serves an acknowledged
// revoke. The record stays journaled and streams on after Heal. A held
// link (the follower stops answering) fails the revoke within the peer's
// timeout too, not never. ROADMAP item 2(a)'s lease is what will let such
// a revoke succeed once the follower has stopped serving.
func TestRevokeFailsAcrossLeaderFollowerPartition(t *testing.T) {
	const peerTimeout = 250 * time.Millisecond
	leader, follower := ringLeader(t, 2), "shard-1"
	if leader == follower {
		follower = "shard-2"
	}
	fl := newFleet(t, 2, fleetConfig{leader: leader, tune: func(fl *fleet, lc *repl.LeaderConfig) {
		lc.Dial = replDialer(PoolConfig{DialTimeout: peerTimeout, Dial: fl.net.Dialer(leader)})
	}})
	waitFor(t, "the follower adopting epoch 1", func() bool { return fl.journals[follower].Epoch() == 1 })
	sc := fl.sharded(ShardedConfig{Replicas: 2})
	ids, _ := fl.enrollIBE(sc, 2)
	fc, u := fl.client(follower), fl.pp.Generator()
	for _, id := range ids {
		if _, err := fc.IBEToken(id, u); err != nil {
			t.Fatal(err)
		}
	}
	// notReplicated checks a revoke's failure and that the follower, still
	// serving, serves the identity: nothing was acknowledged.
	notReplicated := func(id string, err error) {
		t.Helper()
		if !errors.Is(err, repl.ErrNotReplicated) || !strings.Contains(err.Error(), follower) {
			t.Fatalf("Revoke the follower cannot take = %v, want repl.ErrNotReplicated naming %s", err, follower)
		}
		if _, err := fc.IBEToken(id, u); err != nil {
			t.Fatalf("the follower before the record reached it: %v, want a token", err)
		}
	}
	converged := func(id string) {
		t.Helper()
		waitFor(t, "the follower applying the journaled revoke", func() bool { return fl.journals[follower].Registry().IsRevoked(id) })
		if _, err := fc.IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
			t.Fatalf("the converged follower: %v, want ErrRevoked", err)
		}
	}

	fl.net.Partition(leader, follower)
	notReplicated(ids[0], sc.Revoke(ids[0], "partitioned"))
	fl.net.Heal(leader, follower)
	converged(ids[0])

	// A held link fails the append by its deadline: the call's, then the
	// handshake of its replay on a fresh connection.
	fl.net.Hold(leader, follower)
	start := time.Now()
	err := sc.Revoke(ids[1], "held")
	if took := time.Since(start); took > 2*peerTimeout+time.Second {
		t.Fatalf("Revoke across a held link took %v, want it to fail within the peer timeout (%v) of the call and of its replay", took, peerTimeout)
	}
	notReplicated(ids[1], err)
	fl.net.Release(leader, follower)
	converged(ids[1])
}

// TestUnreplicatedFleetLosesNoAckedRevoke: a fleet without a replication
// leader has no way to deliver a revoke to a replica that misses it, so it
// must not acknowledge one that some replica never got. With Replicas: 2
// and one of the identity's replicas cut off from the client during the
// revoke, Revoke fails with ErrNoLeader: a client that fanned the revoke
// out best-effort would return nil while that replica went on issuing
// tokens after Heal, forever. With Replicas: 1 the revoke goes to the
// identity's one shard and bites.
func TestUnreplicatedFleetLosesNoAckedRevoke(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{})
	sc := fl.sharded(ShardedConfig{Replicas: 2})
	ids, _ := fl.enrollIBE(sc, 8)
	u := fl.pp.Generator()
	// An identity with a replica other than the ring's leader shard, and
	// that replica: the one a revoke must not leave behind.
	var id, cut string
	var reps []string
	for _, cand := range ids {
		reps = sc.replicasFor(nil, cand)
		for _, r := range reps {
			if r != sc.LeaderAddr() {
				id, cut = cand, r
			}
		}
		if cut != "" {
			break
		}
	}
	if cut == "" {
		t.Fatal("every identity's replicas are the ring's leader shard")
	}

	fl.net.Partition("client", cut)
	err := sc.Revoke(id, "one replica unreachable")
	fl.net.Heal("client", cut)
	if err == nil {
		for _, r := range reps {
			if _, err := fl.client(r).IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
				t.Fatalf("replica %s after an acknowledged revoke: %v, want ErrRevoked", r, err)
			}
		}
	}
	if !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Revoke on a two-replica fleet without a leader = %v, want ErrNoLeader", err)
	}

	one := fl.sharded(ShardedConfig{Replicas: 1})
	if err := one.Revoke(id, "one replica"); err != nil {
		t.Fatal(err)
	}
	if _, err := one.IBEToken(id, u); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("token after an acknowledged revoke on a one-replica fleet: %v, want ErrRevoked", err)
	}
}

// TestShardedRevokeRoutesThroughLeader pins the ShardedClient write path
// on a replicated fleet: the mutation lands on the leader, which answers
// once every shard holds it. A dead follower fails the call with the typed
// error that names it (the record stays journaled and streams on when the
// shard returns); a dead leader fails it too.
func TestShardedRevokeRoutesThroughLeader(t *testing.T) {
	leader := ringLeader(t, 3)
	fl := newFleet(t, 3, fleetConfig{leader: leader})
	sc := fl.sharded(ShardedConfig{Replicas: 2})
	ids, _ := fl.enrollIBE(sc, 8)

	if err := sc.Revoke(ids[0], "via leader"); err != nil {
		t.Fatal(err)
	}
	// Acknowledged means applied: every shard holds it now.
	for _, addr := range fl.addrs {
		entries, err := fl.client(addr).ListRevoked()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if e.ID == ids[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %s missing the revocation", addr)
		}
	}

	var victim string
	for _, a := range fl.addrs {
		if a != leader {
			victim = a
			break
		}
	}
	fl.net.Crash(victim)
	for name, err := range map[string]error{
		"Revoke":   sc.Revoke(ids[1], "non-leader down"),
		"Unrevoke": sc.Unrevoke(ids[1]),
	} {
		if !errors.Is(err, repl.ErrNotReplicated) || !strings.Contains(err.Error(), victim) {
			t.Fatalf("%s with shard %s down = %v, want repl.ErrNotReplicated naming it", name, victim, err)
		}
	}

	// Kill the leader: the authoritative write path is gone, and no other
	// shard leads, so the mutation must fail loudly rather than degrade to
	// best-effort.
	fl.net.Partition("client", leader)
	if err := sc.Revoke(ids[2], "leader down"); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Revoke with the leader shard unreachable = %v, want ErrNoLeader", err)
	}
}

// TestShardedRevokeFollowsLeaderDrift pins the rebalance hazard: the
// ring's leader designation points at a daemon running as a follower (the
// fleet list changed after the daemons were started with a fixed
// -repl-leader). The ShardedClient resolves the leader by repl.status, not
// by the ring, so it lands the mutation on the daemon actually leading —
// authoritative writes keep working instead of failing until an operator
// restart — and every follower holds it when the call returns.
func TestShardedRevokeFollowsLeaderDrift(t *testing.T) {
	const n = 3
	names := shardNames(n)
	ring, err := shard.New(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	designated := ring.Leader()
	// Deliberately run the real leader on a shard the ring does NOT
	// designate — the post-rebalance drift scenario.
	actual := names[0]
	if actual == designated {
		actual = names[1]
	}
	fl := newFleet(t, n, fleetConfig{leader: actual})

	sc := fl.sharded(ShardedConfig{})
	if got := sc.LeaderAddr(); got != designated {
		t.Fatalf("ring designation = %s, want %s", got, designated)
	}
	if err := sc.Revoke("drift@x", "ring moved"); err != nil {
		t.Fatalf("Revoke with drifted leader designation: %v", err)
	}
	// The mutation must have landed authoritatively on the actual leader…
	if !fl.journals[actual].Registry().IsRevoked("drift@x") {
		t.Fatal("mutation missing from the actual leader")
	}
	// …and be held by every follower, the ring-designated one included.
	for _, a := range names {
		if !fl.journals[a].Registry().IsRevoked("drift@x") {
			t.Fatalf("%s lacks the acknowledged mutation", a)
		}
	}
	if err := sc.Unrevoke("drift@x"); err != nil {
		t.Fatalf("Unrevoke with drifted leader designation: %v", err)
	}
}

// TestRingLeaderStability: the ring's leader designation is a pure
// function of the node set — same fleet, any listing order, same leader.
func TestRingLeaderStability(t *testing.T) {
	fl := newFleet(t, 3, fleetConfig{})
	sc := fl.sharded(ShardedConfig{})
	leader := sc.LeaderAddr()
	found := false
	for _, a := range fl.addrs {
		if a == leader {
			found = true
		}
	}
	if !found {
		t.Fatalf("leader %s not in fleet %v", leader, fl.addrs)
	}
	// Reversed listing, same designation.
	rev := []string{fl.addrs[2], fl.addrs[1], fl.addrs[0]}
	sc2, err := NewShardedClient(rev, fl.pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if got := sc2.LeaderAddr(); got != leader {
		t.Errorf("leader depends on listing order: %s vs %s", got, leader)
	}
}

// lossy relays SEM connections one frame at a time and, when armed, loses
// a response: a request frame carrying the armed op byte (the first one
// after skip others) reaches the server and is answered, but the answer is
// swallowed and the connection severed — the server applied the request,
// the client never learns. That is the failure a replayed replication call
// must survive.
type lossy struct {
	mu      sync.Mutex
	dropOp  byte // 0 = disarmed
	skip    int
	dropped int
}

// lose relays origin's connections to name through a lossy relay.
func (fl *fleet) lose(origin, name string) *lossy {
	l := &lossy{}
	fl.net.Intercept(origin, name, l.relay)
	return l
}

// dropAfter arms the relay to lose the response to an op frame, letting
// skip of them through first.
func (p *lossy) dropAfter(skip int, op byte) {
	p.mu.Lock()
	p.dropOp, p.skip = op, skip
	p.mu.Unlock()
}

func (p *lossy) drops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

func (p *lossy) relay(client, server net.Conn) {
	// Handshake: 5-byte preamble up, 11-byte ack down.
	if _, err := io.CopyN(server, client, 5); err != nil {
		return
	}
	if _, err := io.CopyN(client, server, 11); err != nil {
		return
	}
	frame := func(src net.Conn) ([]byte, error) {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return nil, err
		}
		buf := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(buf, hdr[:])
		_, err := io.ReadFull(src, buf[4:])
		return buf, err
	}
	for {
		req, err := frame(client)
		if err != nil {
			return
		}
		if _, err := server.Write(req); err != nil {
			return
		}
		resp, err := frame(server)
		if err != nil {
			return
		}
		p.mu.Lock()
		lose := false
		if p.dropOp != 0 && req[4] == p.dropOp {
			if lose = p.skip == 0; lose {
				p.dropOp = 0
				p.dropped++
			}
			p.skip--
		}
		p.mu.Unlock()
		if lose {
			return
		}
		if _, err := client.Write(resp); err != nil {
			return
		}
	}
}

// TestReplPeerSurvivesLostResponses drives the leader→follower peer (a
// one-connection Pool since this PR) through the failure its replay-once
// policy introduces on this path: the follower applies a call whose answer
// is lost, and the pool redelivers it on a fresh connection. An append
// must succeed (redelivered records are skipped); a snapshot chunk must be
// refused with a typed server answer — never applied twice — and the
// transfer must complete when restarted from chunk 0.
func TestReplPeerSurvivesLostResponses(t *testing.T) {
	fl := newFleet(t, 1, fleetConfig{journaled: true})
	node := fl.journals[fl.addrs[0]]
	relay := fl.lose("leader", fl.addrs[0])
	peer, err := replDialer(fl.poolConfig("leader"))(fl.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	pool := peer.(*Pool)
	when := time.Now().UTC()

	// Mid-append.
	recs := []core.ReplRecord{
		{Seq: 1, Epoch: 1, Op: "revoke", ID: "a@x", Reason: "one", When: when},
		{Seq: 2, Epoch: 1, Op: "revoke", ID: "b@x", Reason: "two", When: when},
	}
	relay.dropAfter(0, opReplAppend)
	if err := peer.ReplAppend(1, recs); err != nil {
		t.Fatalf("append whose first answer was lost: %v", err)
	}
	if relay.drops() != 1 || pool.met.retries.Value() != 1 {
		t.Fatalf("drops=%d retries=%d, want the append delivered twice", relay.drops(), pool.met.retries.Value())
	}
	if epoch, seq, err := peer.ReplStatus(); err != nil || epoch != 1 || seq != 2 {
		t.Fatalf("status after redelivered append = %d/%d, %v; want 1/2 (records applied once)", epoch, seq, err)
	}

	// Mid-snapshot: lose the answer to the middle chunk of three.
	entries := []core.RevocationEntry{
		{ID: "s0@x", Reason: "r", When: when}, {ID: "s1@x", Reason: "r", When: when}, {ID: "s2@x", Reason: "r", When: when},
	}
	chunk := func(i int) *repl.SnapshotChunk {
		return &repl.SnapshotChunk{Epoch: 2, BaseSeq: 40, Total: 3, Index: i, Chunks: 3, Entries: entries[i : i+1]}
	}
	if err := peer.ReplSnapshot(chunk(0)); err != nil {
		t.Fatal(err)
	}
	relay.dropAfter(0, opReplSnapshot)
	err = peer.ReplSnapshot(chunk(1))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("redelivered chunk: %v, want the follower's typed refusal", err)
	}
	if node.Registry().IsRevoked("s0@x") || node.Epoch() != 1 {
		t.Fatal("a broken transfer must install nothing")
	}
	// The refusal dropped the pending assembly; the leader's answer is to
	// start over, and that must go through.
	for i := 0; i < 3; i++ {
		if err := peer.ReplSnapshot(chunk(i)); err != nil {
			t.Fatalf("restarted transfer, chunk %d: %v", i, err)
		}
	}
	if epoch, seq, err := peer.ReplStatus(); err != nil || epoch != 2 || seq != 40 {
		t.Fatalf("status after restarted snapshot = %d/%d, %v; want 2/40", epoch, seq, err)
	}
	reg := node.Registry()
	if !reg.IsRevoked("s0@x") || !reg.IsRevoked("s1@x") || !reg.IsRevoked("s2@x") || reg.IsRevoked("a@x") {
		t.Fatal("snapshot state not installed wholesale")
	}
}

// TestReplLeaderConvergesThroughLostResponses is the same failure end to
// end: a real Leader streaming to a follower whose answers get lost
// mid-snapshot and mid-append must log the refusal, restart, and converge.
func TestReplLeaderConvergesThroughLostResponses(t *testing.T) {
	var relay *lossy
	var mu sync.Mutex
	var logs []string
	fl := newFleet(t, 2, fleetConfig{leader: "shard-1", tune: func(fl *fleet, lc *repl.LeaderConfig) {
		// Pre-load the leader's journal so first contact needs a three-chunk
		// snapshot, and lose the answer to its second chunk.
		for i := 0; i < 6; i++ {
			if err := lc.Journal.Revoke(fmt.Sprintf("pre%d@x", i), "preloaded"); err != nil {
				t.Fatal(err)
			}
		}
		relay = fl.lose("shard-1", "shard-2")
		relay.dropAfter(1, opReplSnapshot)
		lc.RetryInterval, lc.SnapshotBatch = 10*time.Millisecond, 2
		lc.Logf = func(format string, args ...any) {
			t.Logf(format, args...)
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	}})
	leader, leaderJournal, followerJournal := fl.leader, fl.journals["shard-1"], fl.journals["shard-2"]
	waitFor(t, "snapshot convergence", func() bool {
		return followerJournal.LastSeq() == leaderJournal.LastSeq() && followerJournal.Epoch() == 1
	})
	if relay.drops() != 1 {
		t.Fatalf("drops = %d, want one snapshot chunk's answer lost", relay.drops())
	}
	mu.Lock()
	refused := false
	for _, l := range logs {
		if strings.Contains(l, "does not continue the pending assembly") {
			refused = true
		}
	}
	mu.Unlock()
	if !refused {
		t.Fatalf("leader never saw the follower's typed refusal of the redelivered chunk; log: %q", logs)
	}

	// Now lose an append's answer: the replayed batch is skipped, not
	// re-applied, and nothing gaps.
	relay.dropAfter(0, opReplAppend)
	for i := 0; i < 3; i++ {
		if err := leader.Revoke(fmt.Sprintf("live%d@x", i), "streamed"); err != nil {
			t.Fatal(err)
		}
	}
	// The follower applies the append before the relay reads the answer it
	// then loses, so the drop is waited for with the convergence.
	waitFor(t, "append convergence with an append's answer lost", func() bool {
		return followerJournal.LastSeq() == leaderJournal.LastSeq() && relay.drops() == 2
	})
	if leader.Deposed() {
		t.Fatal("lost responses deposed the leader")
	}
	want := leaderJournal.Registry().Entries()
	got := followerJournal.Registry()
	if len(want) != 9 || len(got.Entries()) != len(want) {
		t.Fatalf("follower holds %d revocations, leader %d (want 9)", len(got.Entries()), len(want))
	}
	for _, e := range want {
		if !got.IsRevoked(e.ID) {
			t.Fatalf("follower missing %s", e.ID)
		}
	}
}
