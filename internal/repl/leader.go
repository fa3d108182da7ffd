package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Peer is the leader's view of one follower. internal/sem implements it
// over a SEM client connection; tests implement it in memory. Methods are
// called from a single replicator goroutine per peer, never concurrently.
type Peer interface {
	// ReplStatus asks the follower for its epoch and last durable seq.
	ReplStatus() (epoch, lastSeq uint64, err error)
	// ReplAppend ships a contiguous batch of records. The error is
	// ErrStaleEpoch (possibly wrapped) when the follower has adopted a
	// higher epoch — the deposed signal.
	ReplAppend(leaderEpoch uint64, recs []core.ReplRecord) error
	// ReplSnapshot ships one chunk of a full-state transfer.
	ReplSnapshot(c *SnapshotChunk) error
	Close() error
}

// appendBatch caps the records one ReplAppend call ships.
const appendBatch = 256

// LeaderConfig configures a replication leader.
type LeaderConfig struct {
	// Journal is the authoritative, sequenced log. Required.
	Journal *core.Journal
	// Epoch is the operator-assigned term, at least 1 (epoch 0 means "no
	// leader has ever spoken" and would disarm every fence). It must be at
	// least the epoch the journal replayed; a replacement leader must be
	// started strictly above its predecessor's epoch.
	Epoch uint64
	// Metrics, when set, registers the leader's series (per-peer acked-seq
	// and lag gauges, traffic counters, the deposed flag). Registration
	// happens inside NewLeader, before any replicator goroutine starts, so
	// there is no window where a goroutine races the counter wiring.
	Metrics *obs.Registry
	// Peers are the follower addresses. May be empty (a leader with no
	// followers is just a journal).
	Peers []string
	// Dial opens a connection to a peer. Required when Peers is non-empty.
	Dial func(addr string) (Peer, error)
	// Logf receives replication lifecycle events. Optional.
	Logf func(format string, args ...any)
	// RetryInterval is the reconnect/idle-poll cadence (default 500ms).
	RetryInterval time.Duration
	// SnapshotBatch caps entries per snapshot chunk (default 512).
	SnapshotBatch int
}

// Leader owns the revocation write path for a fleet: every mutation goes
// through its journal (which assigns the sequence number) and one
// goroutine per follower streams the growing log outward, switching to
// snapshot transfer when a follower is too far behind. A mutation returns
// once every follower has acknowledged it (Revoke). If any follower
// turns out to have adopted a higher epoch, the leader knows it has been
// replaced: it stops replicating and refuses further mutations with
// ErrStaleEpoch, so a deposed leader fails loudly instead of diverging.
type Leader struct {
	cfg     LeaderConfig
	j       *core.Journal
	epoch   uint64
	deposed atomic.Bool

	closed   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	peers    []*peerState

	appends    *obs.Counter
	snapshots  *obs.Counter
	reconnects *obs.Counter
}

// peerState is the per-follower replication cursor. Its replicator writes
// acked and down; a mutation waiting for the follower reads them and waits
// on moved.
type peerState struct {
	addr   string
	notify chan struct{}
	acked  atomic.Uint64 // highest seq the follower has durably applied

	mu    sync.Mutex
	down  error         // why the follower is known down; nil while connected or not yet tried
	moved chan struct{} // closed when acked or down next changes; made by a waiter
}

// watch reports whether the follower has acknowledged seq (both results
// nil) or is known down (down set). Otherwise it returns a channel closed
// at the follower's next change.
func (p *peerState) watch(seq uint64) (moved <-chan struct{}, down error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.acked.Load() >= seq {
		return nil, nil
	}
	if p.down != nil {
		return nil, p.down
	}
	if p.moved == nil {
		p.moved = make(chan struct{})
	}
	return p.moved, nil
}

// advance records that the follower, connected, has durably applied
// everything up to acked, and wakes its waiters.
func (p *peerState) advance(acked uint64) {
	p.mu.Lock()
	p.acked.Store(acked)
	p.down = nil
	p.wakeLocked()
	p.mu.Unlock()
}

// fail records that the follower is down and wakes its waiters.
func (p *peerState) fail(down error) {
	p.mu.Lock()
	p.down = down
	p.wakeLocked()
	p.mu.Unlock()
}

func (p *peerState) wakeLocked() {
	if p.moved != nil {
		close(p.moved)
		p.moved = nil
	}
}

// NewLeader assigns the journal the configured epoch and starts one
// replicator per peer. It fails if the epoch would regress the journal —
// starting a "new" leader below an epoch the log has already seen is the
// operator error epoch fencing exists to catch.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.Journal == nil {
		return nil, errors.New("repl: leader requires a journal")
	}
	if cfg.Epoch == 0 {
		return nil, errors.New("repl: leader epoch must be at least 1 (0 would disarm every follower fence)")
	}
	if len(cfg.Peers) > 0 && cfg.Dial == nil {
		return nil, errors.New("repl: leader with peers requires a dialer")
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 500 * time.Millisecond
	}
	if cfg.SnapshotBatch <= 0 {
		cfg.SnapshotBatch = 512
	}
	if err := cfg.Journal.SetEpoch(cfg.Epoch); err != nil {
		return nil, err
	}
	l := &Leader{
		cfg:    cfg,
		j:      cfg.Journal,
		epoch:  cfg.Epoch,
		closed: make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		l.peers = append(l.peers, &peerState{addr: addr, notify: make(chan struct{}, 1)})
	}
	// Register metrics before any replicator goroutine exists: the
	// goroutines read these counter fields, so wiring them afterwards would
	// be a data race. A nil registry still yields live (unregistered)
	// counters — the fields are never nil.
	l.instrument(cfg.Metrics)
	for _, p := range l.peers {
		l.wg.Add(1)
		go l.runPeer(p)
	}
	return l, nil
}

// instrument registers the leader's series with reg: per-peer acked-seq
// and lag gauges (the replication smoke's convergence probes), traffic
// counters, and the deposed flag. Called from NewLeader only, before the
// replicator goroutines start.
func (l *Leader) instrument(reg *obs.Registry) {
	l.appends = reg.Counter("repl_leader_appends_total", "record batches shipped to followers")
	l.snapshots = reg.Counter("repl_leader_snapshots_total", "snapshot transfers started")
	l.reconnects = reg.Counter("repl_leader_reconnects_total", "follower connections re-established")
	if reg == nil {
		return
	}
	reg.GaugeFunc("repl_leader_deposed", "1 when a follower reported a higher epoch and this leader stopped", func() int64 {
		if l.deposed.Load() {
			return 1
		}
		return 0
	})
	for _, p := range l.peers {
		p := p
		reg.GaugeFunc("repl_peer_acked_seq", "highest seq the follower has durably applied",
			func() int64 { return int64(p.acked.Load()) }, obs.Label{Key: "peer", Value: p.addr})
		reg.GaugeFunc("repl_peer_lag", "records the follower is behind the leader",
			func() int64 {
				last := l.j.LastSeq()
				acked := p.acked.Load()
				if acked >= last {
					return 0
				}
				return int64(last - acked)
			}, obs.Label{Key: "peer", Value: p.addr})
	}
}

// Epoch returns the leader's operating epoch.
func (l *Leader) Epoch() uint64 { return l.epoch }

// Deposed reports whether a follower has adopted a higher epoch.
func (l *Leader) Deposed() bool { return l.deposed.Load() }

// Revoke appends a revocation to the authoritative journal (durably, via
// group commit) and returns once every follower has acknowledged it,
// applied and durable. A follower known down, or one whose append fails
// while the call waits, fails it with ErrNotReplicated; the record stays
// journaled and streams on. A deposed leader refuses with ErrStaleEpoch —
// the fleet has moved to a successor.
func (l *Leader) Revoke(id, reason string) error {
	if l.deposed.Load() {
		return l.staleErr()
	}
	if err := l.j.Revoke(id, reason); err != nil {
		return err
	}
	return l.replicate()
}

// Unrevoke appends a reinstatement and, like Revoke, returns once every
// follower holds it.
func (l *Leader) Unrevoke(id string) error {
	if l.deposed.Load() {
		return l.staleErr()
	}
	if err := l.j.Unrevoke(id); err != nil {
		return err
	}
	return l.replicate()
}

func (l *Leader) staleErr() error {
	return fmt.Errorf("%w: leader at epoch %d was replaced", ErrStaleEpoch, l.epoch)
}

// replicate wakes the replicators and waits until every follower has
// acknowledged the journal's last seq, which covers the record the caller
// just appended.
func (l *Leader) replicate() error {
	seq := l.j.LastSeq()
	l.kick()
	for _, p := range l.peers {
		if err := l.await(p, seq); err != nil {
			return err
		}
	}
	return nil
}

// await waits, in the caller's goroutine, on the cursor p's replicator
// advances until it reaches seq, and fails once p is known down.
func (l *Leader) await(p *peerState, seq uint64) error {
	for {
		moved, down := p.watch(seq)
		switch {
		case moved == nil && down == nil:
			return nil
		case l.deposed.Load():
			return l.staleErr()
		case down != nil:
			return fmt.Errorf("%w: follower %s: %v", ErrNotReplicated, p.addr, down)
		}
		select {
		case <-moved:
		case <-l.closed:
			return fmt.Errorf("%w: follower %s: leader closed", ErrNotReplicated, p.addr)
		}
	}
}

// Journal returns the authoritative journal.
func (l *Leader) Journal() *core.Journal { return l.j }

// AckedSeqs returns each follower's last acknowledged sequence number.
func (l *Leader) AckedSeqs() map[string]uint64 {
	out := make(map[string]uint64, len(l.peers))
	for _, p := range l.peers {
		out[p.addr] = p.acked.Load()
	}
	return out
}

// Close stops the replicators and waits for them to exit.
func (l *Leader) Close() error {
	l.stopOnce.Do(func() { close(l.closed) })
	l.wg.Wait()
	return nil
}

func (l *Leader) kick() {
	for _, p := range l.peers {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

func (l *Leader) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// sleep waits d or until Close; it reports whether the leader is still
// running.
func (l *Leader) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.closed:
		return false
	case <-t.C:
		return true
	}
}

// depose marks the leader replaced. It keeps serving reads — the fleet's
// registry state is still valid — but every replicator stops and further
// mutations fail typed, waiting ones included.
func (l *Leader) depose(addr string, peerEpoch uint64) {
	if l.deposed.CompareAndSwap(false, true) {
		l.logf("repl: deposed — follower %s is at epoch %d, we are at %d", addr, peerEpoch, l.epoch)
		for _, p := range l.peers {
			p.fail(errors.New("leader deposed"))
		}
	}
}

// runPeer is the per-follower replicator: dial, sync position, stream,
// reconnect on failure — forever, until Close or deposition. Between
// connections the follower is known down, so a mutation waiting for it
// fails at once.
func (l *Leader) runPeer(p *peerState) {
	defer l.wg.Done()
	first := true
	for {
		select {
		case <-l.closed:
			return
		default:
		}
		if l.deposed.Load() {
			return
		}
		if !first {
			l.reconnects.Inc()
		}
		first = false
		peer, err := l.cfg.Dial(p.addr)
		if err != nil {
			err = fmt.Errorf("dial: %w", err)
		} else {
			err = l.servePeer(p, peer)
			_ = peer.Close()
		}
		if err != nil {
			if errors.Is(err, ErrStaleEpoch) {
				l.depose(p.addr, 0) // the follower heard a successor
			}
			p.fail(err)
			l.logf("repl: follower %s: %v", p.addr, err)
		}
		if !l.sleep(l.cfg.RetryInterval) {
			return
		}
	}
}

// servePeer drives one connection until it breaks, the leader closes, or
// deposition, and returns why it broke (nil on close). It first learns the
// follower's position and checks that its history can actually be
// extended by ours (log matching), then loops: stream the tail suffix past
// the follower's ack, fall back to a snapshot when the journal has
// compacted past it, idle on the notify channel when caught up.
func (l *Leader) servePeer(p *peerState, peer Peer) error {
	epoch, lastSeq, err := peer.ReplStatus()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if epoch > l.epoch {
		l.depose(p.addr, epoch)
		return fmt.Errorf("%w: follower at epoch %d", ErrStaleEpoch, epoch)
	}
	acked := lastSeq
	if epoch < l.epoch || lastSeq > l.j.LastSeq() {
		// Log matching: a sequence number identifies a record only within
		// one leader's history. A follower still below our epoch may hold
		// records we never issued — a pre-replication journal whose seqs
		// were self-assigned at replay, or appends from a predecessor whose
		// history we did not inherit — and a follower *ahead* of our
		// LastSeq certainly does. Streaming a suffix past such a position
		// would make the seq counters "converge" while the histories
		// silently diverge (revocations permanently withheld, lag reading
		// zero). First contact with an unverifiable position is therefore
		// always a snapshot install: it replaces the follower's history
		// wholesale and durably adopts our epoch, so the not_leader write
		// fence is armed across restarts from the fleet's first moments.
		if acked, err = l.sendSnapshot(peer); err != nil {
			return fmt.Errorf("resync snapshot (follower at epoch %d, seq %d): %w", epoch, lastSeq, err)
		}
	}
	p.advance(acked)
	for {
		select {
		case <-l.closed:
			return nil
		default:
		}
		if l.deposed.Load() {
			return errors.New("leader deposed")
		}
		recs, ok := l.j.TailSince(acked)
		if !ok {
			if acked, err = l.sendSnapshot(peer); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			p.advance(acked)
			continue
		}
		if len(recs) == 0 {
			// Caught up. Wait for new appends; the timer is a belt-and-
			// braces poll in case a notify was consumed by a batch that
			// was already in flight.
			t := time.NewTimer(l.cfg.RetryInterval)
			select {
			case <-l.closed:
				t.Stop()
				return nil
			case <-p.notify:
			case <-t.C:
			}
			t.Stop()
			continue
		}
		for len(recs) > 0 {
			n := len(recs)
			if n > appendBatch {
				n = appendBatch
			}
			if err := peer.ReplAppend(l.epoch, recs[:n]); err != nil {
				// A gap means the follower moved (e.g. was wiped) under us;
				// the next connection resyncs from its reported position.
				return fmt.Errorf("append: %w", err)
			}
			l.appends.Inc()
			acked = recs[n-1].Seq
			p.advance(acked)
			recs = recs[n:]
		}
	}
}

// sendSnapshot streams the full state in chunks and returns the sequence
// number the follower stands at afterwards.
func (l *Leader) sendSnapshot(peer Peer) (uint64, error) {
	epoch, seq, entries := l.j.SnapshotState()
	l.snapshots.Inc()
	chunks := (len(entries) + l.cfg.SnapshotBatch - 1) / l.cfg.SnapshotBatch
	if chunks == 0 {
		chunks = 1 // an empty state still needs one chunk to carry the seq
	}
	for i := 0; i < chunks; i++ {
		lo := i * l.cfg.SnapshotBatch
		hi := lo + l.cfg.SnapshotBatch
		if hi > len(entries) {
			hi = len(entries)
		}
		c := &SnapshotChunk{
			Epoch:   epoch,
			BaseSeq: seq,
			Total:   len(entries),
			Index:   i,
			Chunks:  chunks,
			Entries: entries[lo:hi],
		}
		if err := peer.ReplSnapshot(c); err != nil {
			return 0, err
		}
	}
	return seq, nil
}
