package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func openJournal(t *testing.T) *core.Journal {
	t.Helper()
	j, err := core.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

func mkRecs(epoch uint64, from, n int) []core.ReplRecord {
	out := make([]core.ReplRecord, n)
	for i := range out {
		out[i] = core.ReplRecord{
			Seq:   uint64(from + i),
			Epoch: epoch,
			Op:    "revoke",
			ID:    fmt.Sprintf("id%03d@x", from+i),
			When:  time.Now().UTC(),
		}
	}
	return out
}

// TestFollowerEpochFence: once a follower has heard from epoch E, any
// sender below E is rejected with ErrStaleEpoch — the deposed-leader
// signature — regardless of what records it carries.
func TestFollowerEpochFence(t *testing.T) {
	f := NewFollower(openJournal(t))
	if err := f.ApplyAppend(3, mkRecs(3, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if epoch, seq := f.Status(); epoch != 3 || seq != 2 {
		t.Fatalf("Status = %d/%d, want 3/2", epoch, seq)
	}
	// The deposed leader still thinks it owns the log.
	err := f.ApplyAppend(2, mkRecs(2, 3, 1))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale append error = %v, want ErrStaleEpoch", err)
	}
	if f.Journal().Registry().IsRevoked("id003@x") {
		t.Error("stale leader's record applied")
	}
	// Snapshots from the stale sender are fenced identically.
	err = f.ApplySnapshotChunk(&SnapshotChunk{Epoch: 2, BaseSeq: 99, Chunks: 1})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale snapshot error = %v, want ErrStaleEpoch", err)
	}
	// The successor at a higher epoch is accepted and adopted.
	if err := f.ApplyAppend(4, mkRecs(4, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if epoch, _ := f.Status(); epoch != 4 {
		t.Errorf("epoch after successor = %d, want 4", epoch)
	}
}

// TestFollowerSeqGapAndRedelivery: redelivered prefixes are skipped
// silently, a batch that would leave a hole fails with ErrSeqGap.
func TestFollowerSeqGapAndRedelivery(t *testing.T) {
	f := NewFollower(openJournal(t))
	if err := f.ApplyAppend(1, mkRecs(1, 1, 3)); err != nil {
		t.Fatal(err)
	}
	// Overlapping redelivery: seqs 2..4, only 4 is new.
	if err := f.ApplyAppend(1, mkRecs(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, seq := f.Status(); seq != 4 {
		t.Errorf("seq after overlap = %d, want 4", seq)
	}
	err := f.ApplyAppend(1, mkRecs(1, 7, 2))
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped append error = %v, want ErrSeqGap", err)
	}
	if _, seq := f.Status(); seq != 4 {
		t.Errorf("seq after refused gap = %d, want 4", seq)
	}
}

// TestFollowerSnapshotAssembly: chunks assemble in order into one install;
// an out-of-order chunk resets the pending assembly; totals must match.
func TestFollowerSnapshotAssembly(t *testing.T) {
	f := NewFollower(openJournal(t))
	when := time.Now().UTC()
	entries := []core.RevocationEntry{
		{ID: "a@x", Reason: "r", When: when},
		{ID: "b@x", Reason: "r", When: when},
		{ID: "c@x", Reason: "r", When: when},
	}
	chunk := func(i int) *SnapshotChunk {
		return &SnapshotChunk{Epoch: 2, BaseSeq: 30, Total: 3, Index: i, Chunks: 3, Entries: entries[i : i+1]}
	}
	if err := f.ApplySnapshotChunk(chunk(0)); err != nil {
		t.Fatal(err)
	}
	// A chunk that does not continue the assembly drops it.
	if err := f.ApplySnapshotChunk(chunk(2)); err == nil {
		t.Fatal("out-of-order chunk accepted")
	}
	// Restart from 0 succeeds.
	for i := 0; i < 3; i++ {
		if err := f.ApplySnapshotChunk(chunk(i)); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if epoch, seq := f.Status(); epoch != 2 || seq != 30 {
		t.Errorf("Status after install = %d/%d, want 2/30", epoch, seq)
	}
	for _, e := range entries {
		if !f.Journal().Registry().IsRevoked(e.ID) {
			t.Errorf("%s missing after snapshot install", e.ID)
		}
	}
	// Announced total must match what actually arrived.
	bad := &SnapshotChunk{Epoch: 2, BaseSeq: 31, Total: 5, Index: 0, Chunks: 1, Entries: entries}
	if err := f.ApplySnapshotChunk(bad); err == nil {
		t.Fatal("total mismatch accepted")
	}
}

// memPeer adapts a Follower into the leader's Peer interface without a
// network, with switchable failure injection.
type memPeer struct {
	f    *Follower
	down func() bool // when non-nil and true, every call fails
}

func (p *memPeer) failing() bool { return p.down != nil && p.down() }

func (p *memPeer) ReplStatus() (uint64, uint64, error) {
	if p.failing() {
		return 0, 0, errors.New("memPeer: down")
	}
	e, s := p.f.Status()
	return e, s, nil
}

func (p *memPeer) ReplAppend(leaderEpoch uint64, recs []core.ReplRecord) error {
	if p.failing() {
		return errors.New("memPeer: down")
	}
	return p.f.ApplyAppend(leaderEpoch, recs)
}

func (p *memPeer) ReplSnapshot(c *SnapshotChunk) error {
	if p.failing() {
		return errors.New("memPeer: down")
	}
	return p.f.ApplySnapshotChunk(c)
}

func (p *memPeer) Close() error { return nil }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaderStreamsToFollowers: mutations issued on the leader reach both
// followers in order, and AckedSeqs stands at the leader's LastSeq as soon
// as the last acknowledged call returns.
func TestLeaderStreamsToFollowers(t *testing.T) {
	f1, f2 := NewFollower(openJournal(t)), NewFollower(openJournal(t))
	peers := map[string]*memPeer{"p1": {f: f1}, "p2": {f: f2}}
	l, err := NewLeader(LeaderConfig{
		Journal:       openJournal(t),
		Epoch:         1,
		Peers:         []string{"p1", "p2"},
		Dial:          func(addr string) (Peer, error) { return peers[addr], nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 20; i++ {
		if err := l.Revoke(fmt.Sprintf("id%02d@x", i), "stream"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Unrevoke("id00@x"); err != nil {
		t.Fatal(err)
	}
	if acked := l.AckedSeqs(); acked["p1"] != 21 || acked["p2"] != 21 {
		t.Fatalf("acked seqs after the acknowledged calls = %v, want 21 for both", acked)
	}
	for _, f := range []*Follower{f1, f2} {
		reg := f.Journal().Registry()
		if reg.IsRevoked("id00@x") || !reg.IsRevoked("id19@x") {
			t.Error("follower state diverged")
		}
	}
}

// TestLeaderArmsFenceOnConnect: the leader pushes its epoch to a fresh
// follower on first contact (via the resync snapshot, which durably adopts
// the epoch) before any mutation happens, so the follower's not_leader
// fence (and stale-sender rejection) is armed from the fleet's first
// moments, not from the first revocation.
func TestLeaderArmsFenceOnConnect(t *testing.T) {
	f := NewFollower(openJournal(t))
	l, err := NewLeader(LeaderConfig{
		Journal:       openJournal(t),
		Epoch:         5,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return &memPeer{f: f}, nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	waitFor(t, "follower to adopt the leader epoch", func() bool {
		epoch, _ := f.Status()
		return epoch == 5
	})
	if _, seq := f.Status(); seq != 0 {
		t.Errorf("fence arming moved the sequence to %d", seq)
	}
	// Armed means fenced: an older sender is now rejected.
	if err := f.ApplyAppend(4, mkRecs(4, 1, 1)); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("pre-mutation stale sender error = %v, want ErrStaleEpoch", err)
	}
}

// TestLeaderCatchUpAfterFollowerOutage: a follower down during a run of
// revocations fails each of them with ErrNotReplicated — none is
// acknowledged while the follower lacks it — and converges via suffix
// catch-up once it returns, since the records stayed journaled.
func TestLeaderCatchUpAfterFollowerOutage(t *testing.T) {
	f := NewFollower(openJournal(t))
	var down atomicBool
	peer := &memPeer{f: f, down: down.get}
	l, err := NewLeader(LeaderConfig{
		Journal:       openJournal(t),
		Epoch:         1,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return peer, nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.Revoke("before@x", "r"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replication", func() bool { return l.AckedSeqs()["p"] == 1 })

	down.set(true)
	for i := 0; i < 5; i++ {
		if err := l.Revoke(fmt.Sprintf("during%d@x", i), "outage"); !errors.Is(err, ErrNotReplicated) || !strings.Contains(err.Error(), "follower p") {
			t.Fatalf("Revoke with the follower down = %v, want ErrNotReplicated naming p", err)
		}
	}
	if _, seq := f.Status(); seq != 1 {
		t.Fatalf("follower advanced to %d while down", seq)
	}
	down.set(false)
	waitFor(t, "catch-up after outage", func() bool { return l.AckedSeqs()["p"] == 6 })
	if !f.Journal().Registry().IsRevoked("during4@x") {
		t.Error("outage-window revocation missing after catch-up")
	}
}

// TestLeaderSnapshotFallback: when the leader's tail has been trimmed past
// a follower's position, catch-up switches to a full snapshot transfer.
func TestLeaderSnapshotFallback(t *testing.T) {
	lj := openJournal(t)
	lj.SetTailLimit(4)
	// Build history far beyond the tail before the follower ever connects.
	for i := 0; i < 40; i++ {
		if err := lj.Revoke(fmt.Sprintf("id%02d@x", i), "history"); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFollower(openJournal(t))
	l, err := NewLeader(LeaderConfig{
		Journal:       lj,
		Epoch:         2,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return &memPeer{f: f}, nil },
		RetryInterval: 10 * time.Millisecond,
		SnapshotBatch: 7, // force a multi-chunk transfer
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	waitFor(t, "snapshot catch-up", func() bool { return l.AckedSeqs()["p"] == 40 })
	if epoch, seq := f.Status(); epoch != 2 || seq != 40 {
		t.Errorf("follower at %d/%d after snapshot, want 2/40", epoch, seq)
	}
	if !f.Journal().Registry().IsRevoked("id00@x") || !f.Journal().Registry().IsRevoked("id39@x") {
		t.Error("snapshot state incomplete")
	}
	// Incremental streaming resumes after the snapshot.
	if err := l.Revoke("tail@x", "post-snap"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-snapshot append", func() bool { return l.AckedSeqs()["p"] == 41 })
	if !f.Journal().Registry().IsRevoked("tail@x") {
		t.Error("post-snapshot append missing")
	}
}

// TestLeaderResyncsDivergentLegacyFollower: log matching on first contact.
// A follower carrying a pre-replication journal has self-assigned sequence
// numbers — the same seq values index a *different history* than the
// leader's. Streaming only the leader's suffix past the follower's lastSeq
// would permanently withhold every leader record at or below that number
// while repl_peer_lag reads 0. The leader must instead detect the
// unverifiable position (follower epoch below its own) and install a full
// snapshot, converging the follower to exactly the leader's state.
func TestLeaderResyncsDivergentLegacyFollower(t *testing.T) {
	// Follower: a legacy journal with two self-sequenced local mutations
	// (epoch 0 — no leader has ever spoken to it).
	fj := openJournal(t)
	for _, id := range []string{"local0@x", "local1@x"} {
		if err := fj.Revoke(id, "pre-replication"); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFollower(fj)

	// Leader: a different history, longer than the follower's.
	lj := openJournal(t)
	for _, id := range []string{"a@x", "b@x", "c@x"} {
		if err := lj.Revoke(id, "authoritative"); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLeader(LeaderConfig{
		Journal:       lj,
		Epoch:         1,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return &memPeer{f: f}, nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	waitFor(t, "divergent follower resynced", func() bool { return l.AckedSeqs()["p"] == 3 })
	reg := f.Journal().Registry()
	for _, id := range []string{"a@x", "b@x", "c@x"} {
		if !reg.IsRevoked(id) {
			t.Errorf("leader record %s missing after resync — the exact hole catch-up exists to close", id)
		}
	}
	for _, id := range []string{"local0@x", "local1@x"} {
		if reg.IsRevoked(id) {
			t.Errorf("self-sequenced legacy record %s survived the resync", id)
		}
	}
	if epoch, seq := f.Status(); epoch != 1 || seq != 3 {
		t.Errorf("follower at %d/%d after resync, want 1/3", epoch, seq)
	}
	// Incremental streaming takes over once the histories match.
	if err := l.Revoke("after@x", "post-resync"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-resync append", func() bool { return l.AckedSeqs()["p"] == 4 })
	if !reg.IsRevoked("after@x") {
		t.Error("post-resync append missing")
	}
}

// TestLeaderResyncsAheadFollower: the other divergence signature — a
// follower whose lastSeq exceeds the leader's (a same-epoch misconfig or a
// leader restarted on a shorter journal). TailSince(after >= lastSeq)
// would report "caught up" and the follower would keep records at seqs the
// leader will later reassign to different mutations. The leader must
// rewind it with a snapshot instead.
func TestLeaderResyncsAheadFollower(t *testing.T) {
	// Follower ahead at the same epoch: 5 records at epoch 3.
	f := NewFollower(openJournal(t))
	if err := f.ApplyAppend(3, mkRecs(3, 1, 5)); err != nil {
		t.Fatal(err)
	}
	// Leader at the same epoch with a shorter (2-record) history.
	lj := openJournal(t)
	if err := lj.Revoke("short0@x", "r"); err != nil {
		t.Fatal(err)
	}
	if err := lj.Revoke("short1@x", "r"); err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(LeaderConfig{
		Journal:       lj,
		Epoch:         3,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return &memPeer{f: f}, nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	waitFor(t, "ahead follower rewound", func() bool {
		_, seq := f.Status()
		return seq == 2
	})
	reg := f.Journal().Registry()
	if !reg.IsRevoked("short0@x") || !reg.IsRevoked("short1@x") {
		t.Error("leader state missing after rewind")
	}
	if reg.IsRevoked("id003@x") {
		t.Error("ahead follower's phantom record survived the rewind")
	}
}

// TestLeaderDeposedByHigherEpoch: a follower that has adopted a higher
// epoch deposes the leader — replication stops and further mutations fail
// typed with ErrStaleEpoch.
func TestLeaderDeposedByHigherEpoch(t *testing.T) {
	f := NewFollower(openJournal(t))
	l, err := NewLeader(LeaderConfig{
		Journal:       openJournal(t),
		Epoch:         2,
		Peers:         []string{"p"},
		Dial:          func(string) (Peer, error) { return &memPeer{f: f}, nil },
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Revoke("a@x", "r"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replication", func() bool { return l.AckedSeqs()["p"] == 1 })

	// The successor leader (epoch 3) speaks to the follower directly.
	if err := f.ApplyAppend(3, []core.ReplRecord{{Seq: 2, Epoch: 3, Op: "revoke", ID: "succ@x", When: time.Now().UTC()}}); err != nil {
		t.Fatal(err)
	}
	// The old leader's next append is fenced: the call waiting for it sees
	// the deposition, and the leader stops.
	if err := l.Revoke("b@x", "r"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("Revoke whose append is fenced = %v, want ErrStaleEpoch", err)
	}
	if !l.Deposed() {
		t.Fatal("a fenced append did not depose the leader")
	}
	if err := l.Revoke("c@x", "r"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed Revoke error = %v, want ErrStaleEpoch", err)
	}
	if err := l.Unrevoke("a@x"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed Unrevoke error = %v, want ErrStaleEpoch", err)
	}
	if f.Journal().Registry().IsRevoked("b@x") {
		t.Error("deposed leader's append reached the follower")
	}
}

// gatedPeer is a memPeer whose appends announce themselves on entered and
// then wait for open: a follower as slow as the test wants.
type gatedPeer struct {
	memPeer
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (p *gatedPeer) open() { p.once.Do(func() { close(p.release) }) }

func (p *gatedPeer) ReplAppend(leaderEpoch uint64, recs []core.ReplRecord) error {
	select {
	case p.entered <- struct{}{}:
	case <-p.release:
	}
	<-p.release
	return p.memPeer.ReplAppend(leaderEpoch, recs)
}

// TestLeaderAckWaitsForFollowers pins what an acknowledged mutation means:
// Revoke returns nil only once every follower has applied the append that
// carries it, fails typed when a follower cannot take it, and never hangs
// past Close.
func TestLeaderAckWaitsForFollowers(t *testing.T) {
	leader := func(t *testing.T, epoch uint64, peer Peer) *Leader {
		t.Helper()
		cfg := LeaderConfig{Journal: openJournal(t), Epoch: epoch, RetryInterval: 10 * time.Millisecond, Logf: t.Logf}
		if peer != nil {
			cfg.Peers, cfg.Dial = []string{"p"}, func(string) (Peer, error) { return peer, nil }
		}
		l, err := NewLeader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Close() })
		return l
	}
	// gated is a leader whose one follower is a gatedPeer, past first
	// contact: a mutation from now on reaches the follower as an append.
	gated := func(t *testing.T, epoch uint64) (*Leader, *gatedPeer) {
		p := &gatedPeer{memPeer: memPeer{f: NewFollower(openJournal(t))}, entered: make(chan struct{}), release: make(chan struct{})}
		l := leader(t, epoch, p)
		t.Cleanup(p.open) // before Close, which waits for the replicator
		waitFor(t, "first contact", func() bool { return p.f.Journal().Epoch() == epoch })
		return l, p
	}
	// revoke runs l.Revoke in the background once its append reached p.
	revoke := func(l *Leader, p *gatedPeer) <-chan error {
		done := make(chan error, 1)
		go func() { done <- l.Revoke("a@x", "r") }()
		<-p.entered
		return done
	}

	t.Run("no peers", func(t *testing.T) {
		l := leader(t, 1, nil)
		if err := l.Revoke("a@x", "r"); err != nil {
			t.Fatal(err)
		}
		if err := l.Unrevoke("a@x"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("slow peer", func(t *testing.T) {
		l, p := gated(t, 1)
		done := revoke(l, p)
		select {
		case err := <-done:
			t.Fatalf("Revoke returned %v while the follower's append was still running", err)
		default:
		}
		p.open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !p.f.Journal().Registry().IsRevoked("a@x") {
			t.Fatal("acknowledged revoke missing at the follower")
		}
	})

	t.Run("failing peer", func(t *testing.T) {
		var down atomicBool
		p := &memPeer{f: NewFollower(openJournal(t)), down: down.get}
		l := leader(t, 1, p)
		if err := l.Revoke("a@x", "r"); err != nil {
			t.Fatal(err)
		}
		down.set(true)
		err := l.Revoke("b@x", "r")
		if !errors.Is(err, ErrNotReplicated) || !strings.Contains(err.Error(), "follower p") {
			t.Fatalf("Revoke with a failing follower = %v, want ErrNotReplicated naming p", err)
		}
		if !l.Journal().Registry().IsRevoked("b@x") {
			t.Fatal("the failed revoke must stay journaled at the leader")
		}
	})

	t.Run("close releases", func(t *testing.T) {
		l, p := gated(t, 1)
		done := revoke(l, p)
		closed := make(chan struct{})
		go func() { _ = l.Close(); close(closed) }()
		if err := <-done; !errors.Is(err, ErrNotReplicated) {
			t.Fatalf("Revoke waiting through Close = %v, want ErrNotReplicated", err)
		}
		p.open() // Close waits for the replicator's append
		<-closed
	})

	t.Run("deposed", func(t *testing.T) {
		l, p := gated(t, 2)
		if err := p.f.ApplyAppend(3, nil); err != nil { // a successor speaks
			t.Fatal(err)
		}
		done := revoke(l, p)
		p.open()
		if err := <-done; !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("Revoke whose append a successor fenced = %v, want ErrStaleEpoch", err)
		}
		if err := l.Unrevoke("a@x"); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("deposed Unrevoke = %v, want ErrStaleEpoch", err)
		}
	})
}

// TestNewLeaderEpochRegress: starting a leader below the journal's known
// epoch is the operator error fencing exists to catch — refused up front.
func TestNewLeaderEpochRegress(t *testing.T) {
	j := openJournal(t)
	if err := j.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLeader(LeaderConfig{Journal: j, Epoch: 3}); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if _, err := NewLeader(LeaderConfig{Journal: nil, Epoch: 1}); err == nil {
		t.Fatal("nil journal accepted")
	}
	if _, err := NewLeader(LeaderConfig{Journal: j, Epoch: 5, Peers: []string{"p"}}); err == nil {
		t.Fatal("peers without dialer accepted")
	}
}

// atomicBool is a tiny test helper (sync/atomic.Bool hidden behind funcs
// so memPeer can poll it).
type atomicBool struct {
	mu sync.Mutex
	v  bool
}

func (b *atomicBool) set(v bool) { b.mu.Lock(); b.v = v; b.mu.Unlock() }
func (b *atomicBool) get() bool  { b.mu.Lock(); defer b.mu.Unlock(); return b.v }
