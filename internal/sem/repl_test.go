package sem

import (
	"crypto/rand"
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
	"repro/internal/pairing"
	"repro/internal/repl"
	"repro/internal/shard"
)

// replNode is one journal-backed SEM daemon with its follower wired in,
// optionally carrying a replication leader.
type replNode struct {
	journal  *core.Journal
	follower *repl.Follower
	server   *Server
	addr     string
}

func newReplNode(t *testing.T, pp *pairing.Params, leader *repl.Leader, j *core.Journal) *replNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return newReplNodeOn(t, pp, leader, j, ln)
}

// newReplNodeOn serves a replication node on a pre-bound listener, so a
// test can know the fleet's addresses (and hence the ring's leader
// designation) before deciding which daemon actually runs the leader.
func newReplNodeOn(t *testing.T, pp *pairing.Params, leader *repl.Leader, j *core.Journal, ln net.Listener) *replNode {
	t.Helper()
	f := repl.NewFollower(j)
	// A minimal IBE backend so revocation refusal is observable over the
	// wire (the SEM checks the registry before the key lookup, so no
	// enrollment is needed).
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Registry: j.Registry(),
		IBE:      core.NewIBESEM(pkg.Public(), j.Registry()),
		Journal:  j,
		Repl:     f,
		Leader:   leader,
		Pairing:  pp,
	})
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
	return &replNode{journal: j, follower: f, server: srv, addr: ln.Addr().String()}
}

func tmpJournal(t *testing.T) *core.Journal {
	t.Helper()
	j, err := core.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// TestReplOpsOverTheWire drives the three repl.* ops through a real
// server and client: status reflects applied appends, records land in the
// follower's journal, and the typed refusals (stale epoch, sequence gap)
// survive the protocol round trip as errors.Is-able sentinels.
func TestReplOpsOverTheWire(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	node := newReplNode(t, pp, nil, tmpJournal(t))
	c, err := Dial(node.addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

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
	reg := node.journal.Registry()
	if reg.IsRevoked("a@x") || !reg.IsRevoked("b@x") {
		t.Fatal("appended records not applied")
	}

	// Stale sender: the wire must hand back something errors.Is-able.
	err = c.ReplAppend(1, []core.ReplRecord{{Seq: 4, Epoch: 1, Op: "revoke", ID: "z@x", When: when}})
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

// TestReplLeaderOverSockets is the tentpole end-to-end at package level,
// over real TCP: a leader daemon replicates Revokes (issued by an ordinary
// client against the leader) to a follower daemon; the follower then
// refuses the revoked identity like the paper demands.
func TestReplLeaderOverSockets(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	followerNode := newReplNode(t, pp, nil, tmpJournal(t))

	leaderJournal := tmpJournal(t)
	leader, err := repl.NewLeader(repl.LeaderConfig{
		Journal:       leaderJournal,
		Epoch:         1,
		Peers:         []string{followerNode.addr},
		Dial:          ReplDialer(2 * time.Second),
		RetryInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leaderNode := newReplNode(t, pp, leader, leaderJournal)

	c, err := Dial(leaderNode.addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Revoke(fmt.Sprintf("id%02d@x", i), "e2e"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Unrevoke("id00@x"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for followerNode.journal.LastSeq() < 11 {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want 11", followerNode.journal.LastSeq())
		}
		time.Sleep(10 * time.Millisecond)
	}
	freg := followerNode.journal.Registry()
	if freg.IsRevoked("id00@x") || !freg.IsRevoked("id09@x") {
		t.Fatal("follower state diverged from leader")
	}
	// The follower itself now refuses the revoked identity.
	fc, err := Dial(followerNode.addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	u := pp.Generator()
	if _, err := fc.IBEToken("id09@x", u); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("follower served revoked identity: %v", err)
	}
	// And it refuses to take direct mutations now that it follows a leader.
	if err := fc.Revoke("direct@x", "forbidden"); !errors.Is(err, repl.ErrNotLeader) {
		t.Fatalf("direct revoke on the follower = %v, want repl.ErrNotLeader", err)
	}
}

// TestShardedRevokeRoutesThroughLeader pins the new ShardedClient write
// path: the mutation must land on the ring's leader shard, the hint
// broadcast must reach the healthy rest of the fleet synchronously, and a
// dead non-leader shard must not fail the call (that is the catch-up
// path's job now). A dead leader, by contrast, is a hard error.
func TestShardedRevokeRoutesThroughLeader(t *testing.T) {
	fl := newFleet(t, 3)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ids, _ := fl.enrollIBE(sc, 8)

	if err := sc.Revoke(ids[0], "via leader"); err != nil {
		t.Fatal(err)
	}
	// The hint broadcast is synchronous: every shard sees it immediately.
	for _, addr := range fl.addrs {
		c, err := Dial(addr, fl.pp, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := c.ListRevoked()
		_ = c.Close()
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

	leader := sc.LeaderAddr()
	// Kill a non-leader shard: Revoke must still succeed (the hint is
	// best-effort; in a replicated fleet catch-up finishes the job).
	var victim string
	for _, a := range fl.addrs {
		if a != leader {
			victim = a
			break
		}
	}
	vp := fl.proxyFor(victim)
	vp.setDown(true)
	vp.killAll()
	if err := sc.Revoke(ids[1], "non-leader down"); err != nil {
		t.Fatalf("Revoke with a non-leader shard down: %v", err)
	}
	if err := sc.Unrevoke(ids[1]); err != nil {
		t.Fatalf("Unrevoke with a non-leader shard down: %v", err)
	}

	// Kill the leader: the authoritative write path is gone, so the
	// mutation must fail loudly rather than degrade to best-effort.
	lp := fl.proxyFor(leader)
	lp.setDown(true)
	lp.killAll()
	if err := sc.Revoke(ids[2], "leader down"); err == nil {
		t.Fatal("Revoke succeeded with the leader shard dead")
	}
}

// TestShardedRevokeFollowsLeaderDrift pins the rebalance-hazard recovery:
// when the ring's leader designation points at a daemon running as a
// follower (the fleet list changed after the daemons were started with a
// fixed -repl-leader), the designated shard refuses the mutation with
// not_leader. The ShardedClient must then probe repl.status, find the
// daemon actually leading, and land the mutation there — authoritative
// writes keep working instead of failing until an operator restart.
func TestShardedRevokeFollowsLeaderDrift(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	// Bind listeners first so the ring designation over the final address
	// set is known before choosing which daemon actually leads.
	const n = 3
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ring, err := shard.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	designated := ring.Leader()
	// Deliberately run the real leader on a shard the ring does NOT
	// designate — the post-rebalance drift scenario.
	actual := ""
	var peers []string
	for _, a := range addrs {
		if a != designated && actual == "" {
			actual = a
		}
	}
	for _, a := range addrs {
		if a != actual {
			peers = append(peers, a)
		}
	}
	journals := make(map[string]*core.Journal, n)
	for _, a := range addrs {
		journals[a] = tmpJournal(t)
	}
	leader, err := repl.NewLeader(repl.LeaderConfig{
		Journal:       journals[actual],
		Epoch:         1,
		Peers:         peers,
		Dial:          ReplDialer(2 * time.Second),
		RetryInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i, a := range addrs {
		var l *repl.Leader
		if a == actual {
			l = leader
		}
		newReplNodeOn(t, pp, l, journals[a], lns[i])
	}
	// Wait for the leader to arm every follower's fence: the designated
	// shard only refuses direct mutations once it has adopted epoch 1.
	deadline := time.Now().Add(10 * time.Second)
	for _, a := range peers {
		for journals[a].Epoch() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never adopted the leader epoch", a)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	sc, err := NewShardedClient(addrs, pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if got := sc.LeaderAddr(); got != designated {
		t.Fatalf("ring designation = %s, want %s", got, designated)
	}
	if err := sc.Revoke("drift@x", "ring moved"); err != nil {
		t.Fatalf("Revoke with drifted leader designation: %v", err)
	}
	// The mutation must have landed authoritatively on the actual leader…
	if !journals[actual].Registry().IsRevoked("drift@x") {
		t.Fatal("mutation missing from the actual leader")
	}
	// …and replicate to every follower, including the ring-designated one.
	for _, a := range peers {
		for !journals[a].Registry().IsRevoked("drift@x") {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never converged", a)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := sc.Unrevoke("drift@x"); err != nil {
		t.Fatalf("Unrevoke with drifted leader designation: %v", err)
	}
}

// TestRingLeaderStability: the ring's leader designation is a pure
// function of the node set — same fleet, any listing order, same leader.
func TestRingLeaderStability(t *testing.T) {
	fl := newFleet(t, 3)
	sc, err := NewShardedClient(fl.addrs, fl.pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
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

// lossyProxy forwards SEM connections to a backend one frame at a time and,
// when armed, loses a response: a request frame carrying the armed op byte
// (the first one after skip others) reaches the backend and is answered,
// but the answer is swallowed and the connection severed — the server
// applied the request, the client never learns. That is the failure a replayed replication call must
// survive.
type lossyProxy struct {
	ln      net.Listener
	backend string
	wg      sync.WaitGroup

	mu      sync.Mutex
	dropOp  byte // 0 = disarmed
	skip    int
	dropped int
}

func newLossyProxy(t *testing.T, backend string) *lossyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &lossyProxy{ln: ln, backend: backend}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.relay(c)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *lossyProxy) addr() string { return p.ln.Addr().String() }

// dropAfter arms the proxy to lose the response to an op frame, letting
// skip of them through first.
func (p *lossyProxy) dropAfter(skip int, op byte) {
	p.mu.Lock()
	p.dropOp, p.skip = op, skip
	p.mu.Unlock()
}

func (p *lossyProxy) drops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

func (p *lossyProxy) relay(client net.Conn) {
	defer func() { _ = client.Close() }()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer func() { _ = server.Close() }()
	deadline := time.Now().Add(30 * time.Second)
	_ = client.SetDeadline(deadline)
	_ = server.SetDeadline(deadline)
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
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	node := newReplNode(t, pp, nil, tmpJournal(t))
	proxy := newLossyProxy(t, node.addr)
	peer, err := ReplDialer(2 * time.Second)(proxy.addr())
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
	proxy.dropAfter(0, opReplAppend)
	if err := peer.ReplAppend(1, recs); err != nil {
		t.Fatalf("append whose first answer was lost: %v", err)
	}
	if proxy.drops() != 1 || pool.met.retries.Value() != 1 {
		t.Fatalf("drops=%d retries=%d, want the append delivered twice", proxy.drops(), pool.met.retries.Value())
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
	proxy.dropAfter(0, opReplSnapshot)
	err = peer.ReplSnapshot(chunk(1))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("redelivered chunk: %v, want the follower's typed refusal", err)
	}
	if node.journal.Registry().IsRevoked("s0@x") || node.journal.Epoch() != 1 {
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
	reg := node.journal.Registry()
	if !reg.IsRevoked("s0@x") || !reg.IsRevoked("s1@x") || !reg.IsRevoked("s2@x") || reg.IsRevoked("a@x") {
		t.Fatal("snapshot state not installed wholesale")
	}
}

// TestReplLeaderConvergesThroughLostResponses is the same failure end to
// end: a real Leader streaming to a follower whose answers get lost
// mid-snapshot and mid-append must log the refusal, restart, and converge.
func TestReplLeaderConvergesThroughLostResponses(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	followerNode := newReplNode(t, pp, nil, tmpJournal(t))
	proxy := newLossyProxy(t, followerNode.addr)

	// Pre-load the leader's journal so first contact needs a three-chunk
	// snapshot, and lose the answer to its second chunk.
	leaderJournal := tmpJournal(t)
	for i := 0; i < 6; i++ {
		if err := leaderJournal.Revoke(fmt.Sprintf("pre%d@x", i), "preloaded"); err != nil {
			t.Fatal(err)
		}
	}
	proxy.dropAfter(1, opReplSnapshot)
	var mu sync.Mutex
	var logs []string
	leader, err := repl.NewLeader(repl.LeaderConfig{
		Journal:       leaderJournal,
		Epoch:         1,
		Peers:         []string{proxy.addr()},
		Dial:          ReplDialer(2 * time.Second),
		RetryInterval: 10 * time.Millisecond,
		SnapshotBatch: 2,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("%s never happened; leader log: %q", what, logs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("snapshot convergence", func() bool {
		return followerNode.journal.LastSeq() == leaderJournal.LastSeq() && followerNode.journal.Epoch() == 1
	})
	if proxy.drops() != 1 {
		t.Fatalf("drops = %d, want one snapshot chunk's answer lost", proxy.drops())
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
	proxy.dropAfter(0, opReplAppend)
	for i := 0; i < 3; i++ {
		if err := leader.Revoke(fmt.Sprintf("live%d@x", i), "streamed"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("append convergence", func() bool { return followerNode.journal.LastSeq() == leaderJournal.LastSeq() })
	if proxy.drops() != 2 {
		t.Fatalf("drops = %d, want an append's answer lost too", proxy.drops())
	}
	if leader.Deposed() {
		t.Fatal("lost responses deposed the leader")
	}
	want := leaderJournal.Registry().Entries()
	got := followerNode.journal.Registry()
	if len(want) != 9 || len(got.Entries()) != len(want) {
		t.Fatalf("follower holds %d revocations, leader %d (want 9)", len(got.Entries()), len(want))
	}
	for _, e := range want {
		if !got.IsRevoked(e.ID) {
			t.Fatalf("follower missing %s", e.ID)
		}
	}
}
