// Package repl replicates the revocation journal across a SEM fleet.
//
// The paper's revocation guarantee — a revoked identity loses its
// capabilities the moment the SEM refuses its half of an operation — is
// only as strong as every mediator's view of the revocation list. A
// sharded fleet where each daemon keeps its own journal re-opens the hole
// the SEM closed: a shard that was down during a Revoke comes back serving
// the revoked identity. repl closes it by making one shard the *leader*
// for revocation writes and streaming its sequenced journal to every
// other shard (the followers).
//
// The design is deliberately smaller than consensus. There is no
// election: the operator assigns the leader and its epoch (-repl-leader /
// -repl-epoch on cmd/semd), and a replacement leader must be started with
// a strictly higher epoch. What the protocol does guarantee:
//
//   - Ordered, exactly-once application: every mutation carries the
//     leader-assigned sequence number; followers apply in order, skip
//     redelivered records, and refuse gaps with ErrSeqGap.
//   - Epoch fencing: a follower that has heard from epoch E rejects
//     appends and snapshots from any sender below E with ErrStaleEpoch,
//     so a deposed leader cannot un-converge the fleet once its successor
//     has spoken.
//   - Catch-up with log matching: a restarting follower reports its epoch
//     and last durable sequence (repl.status). The leader streams the
//     missing suffix only when that position is verifiably within its own
//     history — the follower has already adopted this leader's epoch and
//     is at or behind the leader's last seq. Any other position (a legacy
//     pre-replication journal with self-assigned seqs, a fleet member left
//     over from a deposed leader's reign, a follower ahead of the leader)
//     is resynced with a full snapshot install, never a suffix: seq
//     numbers from different histories must not be compared.
//   - Acknowledged means applied: Leader.Revoke/Unrevoke return only once
//     every follower has acknowledged the append carrying the record,
//     applied and durable, and otherwise fail with ErrNotReplicated naming
//     the follower. No acknowledged revoke is missing from a follower.
//   - A single write path: once a journal has adopted a leader epoch its
//     daemon refuses direct revoke/unrevoke ops with ErrNotLeader, so a
//     follower can never self-sequence a mutation that would fork its
//     numbering from the leader's. The leader arms this fence on first
//     contact via the resync snapshot, and the adoption is durable (the
//     journal persists epoch changes), so the fence survives follower
//     restarts.
//
// What the protocol cannot catch: two leaders started with the *same*
// epoch. Each would accept and sequence its own mutations, and their
// followers cannot tell the histories apart. Operators must assign epochs
// strictly monotonically (cmd/semd refuses -repl-epoch 0; promote with a
// higher value than any predecessor's).
//
// Transport is the existing SEM v2 wire protocol: three ops
// (repl.append / repl.snapshot / repl.status) whose payloads this package
// encodes from the journal's own types (codec.go). It never touches
// sockets — the Leader speaks through the Peer interface and internal/sem
// provides the concrete client adapter, keeping repl testable with
// in-memory peers.
package repl

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

var (
	// ErrStaleEpoch is returned (and sent over the wire) when a replication
	// message arrives from a sender whose epoch is below the receiver's —
	// the deposed-leader signature.
	ErrStaleEpoch = errors.New("repl: stale epoch")

	// ErrSeqGap is returned when an append does not contiguously extend the
	// follower's journal. The leader reacts by falling back to a snapshot.
	ErrSeqGap = errors.New("repl: sequence gap")

	// ErrNotLeader is returned when a direct revocation mutation reaches a
	// daemon that follows a replication leader (its journal has adopted an
	// epoch > 0). A follower that self-sequenced the mutation would fork
	// the journal numbering from the leader's, so the write is refused and
	// the caller pointed at the leader.
	ErrNotLeader = errors.New("repl: not the revocation leader")

	// ErrNotReplicated is returned by Leader.Revoke/Unrevoke when a
	// follower did not acknowledge the record: it is known down, or its
	// append failed while the caller waited. The error names the follower.
	// The record stays journaled at the leader and streams on once the
	// follower is back; the caller may retry.
	ErrNotReplicated = errors.New("repl: not replicated")
)

// SnapshotChunk is one slice of a full-state transfer, in the one form the
// follower applies and the wire carries (MarshalSnapshotChunk). Entries
// across all Chunks chunks of the same (Epoch, BaseSeq) snapshot
// concatenate to the complete revocation set as of BaseSeq.
type SnapshotChunk struct {
	Epoch   uint64
	BaseSeq uint64
	Total   int
	Index   int
	Chunks  int
	Entries []core.RevocationEntry
}

// Follower applies leader-issued replication traffic to the local
// journal. One Follower serves one journal; the SEM server routes the
// repl.* ops here. Safe for concurrent use — applies are serialized.
type Follower struct {
	mu sync.Mutex
	j  *core.Journal

	// In-progress snapshot assembly. Chunks must arrive in order on one
	// connection; a chunk that does not continue the pending assembly
	// resets it (the leader restarts snapshots from chunk 0 on reconnect).
	snapEpoch   uint64
	snapBase    uint64
	snapTotal   int
	snapChunks  int
	snapNext    int
	snapEntries []core.RevocationEntry

	applied      *obs.Counter
	snapshots    *obs.Counter
	staleRejects *obs.Counter
	gapRejects   *obs.Counter
}

// NewFollower wraps j as the target of replication traffic.
func NewFollower(j *core.Journal) *Follower {
	return &Follower{j: j}
}

// Journal returns the journal the follower applies into.
func (f *Follower) Journal() *core.Journal { return f.j }

// Instrument registers the follower's series with reg. The journal's own
// Instrument (last-seq/epoch gauges) is what the convergence checks
// scrape; these counters narrate how the follower got there.
func (f *Follower) Instrument(reg *obs.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = reg.Counter("repl_applied_records_total", "replicated records applied to the local journal")
	f.snapshots = reg.Counter("repl_snapshots_installed_total", "full snapshots installed from the leader")
	f.staleRejects = reg.Counter("repl_stale_epoch_rejects_total", "replication messages rejected for a stale sender epoch")
	f.gapRejects = reg.Counter("repl_seq_gap_rejects_total", "appends rejected for a sequence gap")
}

// Status reports the follower's replication position: the highest epoch
// it has adopted and the sequence number of its newest durable mutation.
func (f *Follower) Status() (epoch, lastSeq uint64) {
	return f.j.Epoch(), f.j.LastSeq()
}

// ApplyAppend applies a contiguous batch of records from a sender at
// leaderEpoch. Records at or below the journal's current sequence are
// skipped (redelivery is idempotent); a batch from a stale sender fails
// with ErrStaleEpoch, and one that would leave a hole fails with
// ErrSeqGap — the leader answers that with a snapshot.
func (f *Follower) ApplyAppend(leaderEpoch uint64, recs []core.ReplRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.j.Epoch(); leaderEpoch < cur {
		f.staleRejects.Inc()
		return fmt.Errorf("%w: append from epoch %d, follower at epoch %d", ErrStaleEpoch, leaderEpoch, cur)
	}
	// Adopting the sender's epoch arms the fence — durably, the journal
	// persists epoch adoption — so the predecessor leader stays stale even
	// across a follower restart.
	if err := f.j.SetEpoch(leaderEpoch); err != nil {
		return err
	}
	last := f.j.LastSeq()
	start := 0
	for start < len(recs) && recs[start].Seq <= last {
		start++
	}
	recs = recs[start:]
	if len(recs) == 0 {
		return nil
	}
	if recs[0].Seq != last+1 {
		f.gapRejects.Inc()
		return fmt.Errorf("%w: append starts at seq %d, journal at %d", ErrSeqGap, recs[0].Seq, last)
	}
	n, err := f.j.ApplyReplicated(recs)
	f.applied.Add(uint64(n))
	return err
}

// ApplySnapshotChunk feeds one chunk of a full-state transfer. When the
// final chunk arrives the assembled snapshot is installed atomically —
// the journal file is rewritten and the registry reset, firing
// revoke/unrevoke listeners for the differences. Chunks must arrive in
// order; an out-of-sequence chunk drops the pending assembly and errors,
// and the leader restarts the snapshot from chunk 0.
func (f *Follower) ApplySnapshotChunk(c *SnapshotChunk) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.j.Epoch(); c.Epoch < cur {
		f.staleRejects.Inc()
		return fmt.Errorf("%w: snapshot from epoch %d, follower at epoch %d", ErrStaleEpoch, c.Epoch, cur)
	}
	if c.Chunks <= 0 || c.Index < 0 || c.Index >= c.Chunks {
		return fmt.Errorf("repl: snapshot chunk index %d outside 0..%d", c.Index, c.Chunks)
	}
	if c.Index == 0 {
		f.snapEpoch, f.snapBase = c.Epoch, c.BaseSeq
		f.snapTotal, f.snapChunks, f.snapNext = c.Total, c.Chunks, 0
		f.snapEntries = f.snapEntries[:0]
	} else if c.Epoch != f.snapEpoch || c.BaseSeq != f.snapBase || c.Chunks != f.snapChunks || c.Index != f.snapNext {
		f.snapNext = 0
		f.snapEntries = nil
		return fmt.Errorf("repl: snapshot chunk %d/%d (epoch %d, base %d) does not continue the pending assembly", c.Index, c.Chunks, c.Epoch, c.BaseSeq)
	}
	f.snapEntries = append(f.snapEntries, c.Entries...)
	f.snapNext = c.Index + 1
	if f.snapNext < f.snapChunks {
		return nil
	}
	entries := f.snapEntries
	f.snapEntries = nil
	f.snapNext = 0
	if len(entries) != f.snapTotal {
		return fmt.Errorf("repl: snapshot assembled %d entries, leader announced %d", len(entries), f.snapTotal)
	}
	if err := f.j.InstallSnapshot(f.snapEpoch, f.snapBase, entries); err != nil {
		return err
	}
	f.snapshots.Inc()
	return nil
}
