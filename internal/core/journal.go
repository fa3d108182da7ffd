package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// Revocation durability. The paper's SEM "remains online all the system's
// lifetime", which in practice means surviving restarts without forgetting
// who was revoked — otherwise a crash would silently unrevoke everyone.
// Journal gives Registry an append-only JSONL log: every Revoke/Unrevoke
// is recorded before it takes effect, and OpenJournal replays the log on
// startup. cmd/semd wires this behind its -journal flag.
//
// Since PR 10 the journal is also the unit of replication: every mutation
// carries a monotonically increasing sequence number and the epoch of the
// leader that issued it, the journal keeps an in-memory tail of recent
// records so a leader can stream the suffix a follower is missing, and the
// log can be compacted to a single snapshot record once the prefix is no
// longer needed. internal/repl builds the leader/follower protocol on top
// of these primitives; the journal itself stays transport-agnostic.

// journalRecord is one line of the append-only log. Seq/Epoch are zero on
// logs written before replication existed ("legacy" records); replay
// assigns those sequential numbers so an upgraded journal is immediately
// replicable. Op "snapshot" replaces the whole state: Entries holds the
// complete revocation set as of Seq, and replay discards everything before
// it — the compaction format. Op "epoch" durably records an epoch adoption
// (a follower fenced by a new leader, or a leader assuming its term): it
// raises the journal's epoch without consuming a sequence number, so the
// not_leader write fence survives a restart.
type journalRecord struct {
	Op      string            `json:"op"` // "revoke" | "unrevoke" | "snapshot" | "epoch"
	ID      string            `json:"id,omitempty"`
	Reason  string            `json:"reason,omitempty"`
	When    time.Time         `json:"when"`
	Seq     uint64            `json:"seq,omitempty"`
	Epoch   uint64            `json:"epoch,omitempty"`
	Entries []RevocationEntry `json:"entries,omitempty"`
}

// ReplRecord is one replicable journal mutation — the unit internal/repl
// ships from leader to follower. Op uses the journal's own op names
// ("revoke"/"unrevoke"); snapshot records never appear here, they travel
// over the dedicated snapshot path.
type ReplRecord struct {
	Seq    uint64
	Epoch  uint64
	Op     string
	ID     string
	Reason string
	When   time.Time
}

// defaultTailLimit bounds the in-memory record tail kept for serving
// replication suffixes. A follower further behind than this is served a
// snapshot instead, so the limit trades leader memory against how long a
// follower may be down and still catch up incrementally.
const defaultTailLimit = 1024

// maxJournalLine is the scanner budget for one journal line. Snapshot
// records carry the whole revocation set on a single line, so the limit
// must comfortably exceed bufio's 64 KiB default.
const maxJournalLine = 64 << 20

var errJournalClosed = errors.New("core: journal is closed")

// Journal is a Registry bound to an append-only log file. It embeds the
// registry semantics by delegation (not embedding, to keep the persisted
// mutations on the write path).
type Journal struct {
	mu   sync.Mutex
	reg  *Registry
	f    *os.File
	enc  *json.Encoder
	path string

	lastSeq uint64
	epoch   uint64

	// tail holds the most recent records (ascending Seq, contiguous) so
	// TailSince can serve a follower's catch-up without re-reading the file.
	// Trimmed to tailLimit amortized; empty right after a snapshot install.
	tail      []ReplRecord
	tailLimit int

	// Group commit: writers append under mu, then wait for a sync covering
	// their write. One writer becomes the syncer and fsyncs on behalf of
	// everyone that wrote before it looked — concurrent revocations pay one
	// disk flush between them instead of one each.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	writeGen uint64 // records written to the OS
	syncGen  uint64 // generation covered by the last completed fsync
	syncing  bool
	syncErr  error // outcome of the last fsync, covering gens ≤ syncGen

	// Compaction bookkeeping: records appended since the last snapshot.
	sinceSnap   int
	autoCompact int

	replayed     int
	droppedLines int
	unknownOps   int

	appendTime  *obs.Histogram
	appends     *obs.Counter
	fsyncs      *obs.Counter
	compactions *obs.Counter
}

// OpenJournal opens (creating if needed) the log at path, replays it into
// a fresh Registry and returns the bound journal. Corrupt trailing lines
// (a crash mid-write) are tolerated: replay stops at the first undecodable
// line. The outcome is never silent — Replayed reports how many records
// took effect, DroppedLines how many non-empty lines were abandoned after
// the corruption point, and UnknownOps how many well-formed records carried
// an op this build does not understand (skipped, not applied — a journal
// written by a newer version). cmd/semd logs all three at startup.
func OpenJournal(path string) (*Journal, error) {
	reg := NewRegistry()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("open revocation journal: %w", err)
	}
	j := &Journal{reg: reg, path: path, tailLimit: defaultTailLimit}
	j.syncCond = sync.NewCond(&j.syncMu)
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 64*1024), maxJournalLine)
	corrupt := false
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		if corrupt {
			// Count what the stop-at-corruption policy is discarding; a
			// long valid suffix after a bad line means real damage, not a
			// torn final write.
			j.droppedLines++
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			corrupt = true
			j.droppedLines++
			continue
		}
		switch rec.Op {
		case "revoke":
			j.replaySeq(&rec)
			reg.mu.Lock()
			reg.revoked[rec.ID] = RevocationEntry{ID: rec.ID, Reason: rec.Reason, When: rec.When}
			reg.mu.Unlock()
			j.pushTail(ReplRecord{Seq: rec.Seq, Epoch: rec.Epoch, Op: rec.Op, ID: rec.ID, Reason: rec.Reason, When: rec.When})
			j.replayed++
		case "unrevoke":
			j.replaySeq(&rec)
			reg.mu.Lock()
			delete(reg.revoked, rec.ID)
			reg.mu.Unlock()
			j.pushTail(ReplRecord{Seq: rec.Seq, Epoch: rec.Epoch, Op: rec.Op, ID: rec.ID, When: rec.When})
			j.replayed++
		case "snapshot":
			// A snapshot supersedes everything before it: reset the registry
			// to exactly its entries and restart the tail after its seq.
			next := make(map[string]RevocationEntry, len(rec.Entries))
			for _, e := range rec.Entries {
				next[e.ID] = e
			}
			reg.mu.Lock()
			reg.revoked = next
			reg.mu.Unlock()
			if rec.Seq > j.lastSeq {
				j.lastSeq = rec.Seq
			}
			if rec.Epoch > j.epoch {
				j.epoch = rec.Epoch
			}
			j.tail = j.tail[:0]
			j.replayed++
		case "epoch":
			// Durable epoch adoption: the fence a replication leader armed
			// on this journal. Raises the epoch only — no sequence number
			// was consumed and no registry state changes.
			if rec.Epoch > j.epoch {
				j.epoch = rec.Epoch
			}
			j.replayed++
		default:
			// A record from a newer build. Skipping it silently as "replayed"
			// would overstate how much of the journal took effect, so it is
			// accounted separately and the operator decides whether to care.
			j.unknownOps++
		}
	}
	if err := scanner.Err(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("replay revocation journal: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("seek revocation journal: %w", err)
	}
	j.f = f
	j.enc = json.NewEncoder(f)
	return j, nil
}

// replaySeq fixes up a replayed mutation's sequence/epoch bookkeeping.
// Legacy records (Seq == 0, written before replication) are assigned the
// next sequence number so an upgraded journal replicates immediately.
func (j *Journal) replaySeq(rec *journalRecord) {
	if rec.Seq == 0 {
		rec.Seq = j.lastSeq + 1
	}
	if rec.Seq > j.lastSeq {
		j.lastSeq = rec.Seq
	}
	if rec.Epoch > j.epoch {
		j.epoch = rec.Epoch
	}
}

// pushTail appends a record to the in-memory tail, trimming amortized so
// the slice never holds more than 2×tailLimit and never memmoves per call.
func (j *Journal) pushTail(rec ReplRecord) {
	j.tail = append(j.tail, rec)
	if len(j.tail) >= 2*j.tailLimit {
		keep := j.tail[len(j.tail)-j.tailLimit:]
		next := make([]ReplRecord, len(keep))
		copy(next, keep)
		j.tail = next
	}
}

// Replayed reports how many journal records were applied by OpenJournal.
func (j *Journal) Replayed() int { return j.replayed }

// DroppedLines reports how many non-empty journal lines OpenJournal
// abandoned at and after the first undecodable one. 0 means a clean
// replay; 1 is the expected torn-final-write crash signature; larger
// values indicate mid-file corruption and deserve operator attention.
func (j *Journal) DroppedLines() int { return j.droppedLines }

// UnknownOps reports how many well-formed records OpenJournal skipped
// because their op is not understood by this build. Unlike corruption this
// does not stop replay — later records still apply — but the journal was
// written by software with more vocabulary than ours, which an operator
// rolling back a fleet needs to know.
func (j *Journal) UnknownOps() int { return j.unknownOps }

// LastSeq reports the sequence number of the newest durable mutation.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Epoch reports the highest leader epoch the journal has recorded or been
// assigned via SetEpoch.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// SetEpoch raises the journal's epoch — the leader's startup handshake and
// the follower's fence adoption. A replacement leader must be configured
// with an epoch strictly above its predecessor's; asking for one below what
// the journal has already seen is refused, because appending under a stale
// epoch is exactly the confusion epoch fencing exists to prevent.
//
// Raising the epoch is durable: an "epoch" record is appended and fsynced
// (via group commit) before SetEpoch returns, so a follower that restarts
// keeps refusing direct mutations with not_leader instead of silently
// reopening the self-sequencing write path at epoch 0. Setting the epoch
// the journal already holds is a no-op and writes nothing.
func (j *Journal) SetEpoch(epoch uint64) error {
	j.mu.Lock()
	if epoch < j.epoch {
		cur := j.epoch
		j.mu.Unlock()
		return fmt.Errorf("core: journal already at epoch %d, refusing to regress to %d", cur, epoch)
	}
	if epoch == j.epoch {
		j.mu.Unlock()
		return nil
	}
	if j.f == nil {
		j.mu.Unlock()
		return errJournalClosed
	}
	// Not writeLocked: an epoch record consumes no sequence number and must
	// never enter the replication tail (it is local fencing state, not a
	// mutation a leader ships to followers).
	rec := journalRecord{Op: "epoch", When: time.Now(), Seq: j.lastSeq, Epoch: epoch}
	if err := j.enc.Encode(rec); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("append revocation journal epoch: %w", err)
	}
	j.epoch = epoch
	j.appends.Inc()
	j.syncMu.Lock()
	j.writeGen++
	gen := j.writeGen
	j.syncMu.Unlock()
	j.mu.Unlock()
	return j.commitSync(gen)
}

// SetTailLimit overrides how many recent records the journal retains for
// serving replication suffixes (tests shrink it to force snapshot
// catch-up). Must be called before the journal is shared.
func (j *Journal) SetTailLimit(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > 0 {
		j.tailLimit = n
	}
}

// SetAutoCompact makes the journal rewrite itself as a single snapshot
// record after every n appended mutations (0 disables). Compaction runs
// inline on the append that crosses the threshold.
func (j *Journal) SetAutoCompact(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.autoCompact = n
}

// Instrument registers the journal's series with reg: the append-latency
// histogram (every revocation mutation pays — or shares — an fsync; this
// is the number that decides revocation throughput), append/fsync counters
// whose ratio is the group-commit coalescing factor, sequence/epoch gauges
// the replication smoke scrapes for convergence, and replay accounting
// from the last OpenJournal.
func (j *Journal) Instrument(reg *obs.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendTime = reg.Histogram("journal_append_seconds", "revocation journal append + fsync time")
	j.appends = reg.Counter("journal_appends_total", "journal records appended")
	j.fsyncs = reg.Counter("journal_fsyncs_total", "journal fsyncs issued (appends/fsyncs = group-commit factor)")
	j.compactions = reg.Counter("journal_compactions_total", "journal snapshot compactions")
	reg.Gauge("journal_replayed_records", "journal records replayed at startup").Set(int64(j.replayed))
	reg.Gauge("journal_dropped_lines", "journal lines dropped at startup (corrupt tail)").Set(int64(j.droppedLines))
	reg.Gauge("journal_unknown_ops", "journal records skipped at startup (op unknown to this build)").Set(int64(j.unknownOps))
	reg.GaugeFunc("journal_last_seq", "sequence number of the newest durable revocation mutation", func() int64 {
		return int64(j.LastSeq())
	})
	reg.GaugeFunc("journal_epoch", "highest replication epoch the journal has recorded", func() int64 {
		return int64(j.Epoch())
	})
}

// Registry returns the replayed, live registry. SEMs share it as usual;
// only mutations made through the Journal are persisted.
func (j *Journal) Registry() *Registry { return j.reg }

// Revoke persists and applies a revocation. The record is written (and the
// in-memory effect applied) under the journal lock, which fixes the order
// of mutations; the fsync happens outside it via group commit, so
// concurrent revocations coalesce into one flush. Revoke does not return
// until its record is durable — a crash can only lose mutations nobody was
// told succeeded.
func (j *Journal) Revoke(id, reason string) error {
	return j.appendMutation("revoke", id, reason)
}

// Unrevoke persists and applies a reinstatement.
func (j *Journal) Unrevoke(id string) error {
	return j.appendMutation("unrevoke", id, "")
}

func (j *Journal) appendMutation(op, id, reason string) error {
	start := time.Now()
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return errJournalClosed
	}
	rec := journalRecord{Op: op, ID: id, Reason: reason, When: time.Now(), Seq: j.lastSeq + 1, Epoch: j.epoch}
	gen, err := j.writeLocked(rec)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	switch op {
	case "revoke":
		j.reg.Revoke(id, reason)
	case "unrevoke":
		j.reg.Unrevoke(id)
	}
	err = j.maybeCompactLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if err := j.commitSync(gen); err != nil {
		return err
	}
	j.appendTime.Observe(time.Since(start))
	return nil
}

// writeLocked encodes rec to the OS, advances the sequence/tail state and
// returns the write generation the caller must wait on for durability.
// Caller holds j.mu.
func (j *Journal) writeLocked(rec journalRecord) (uint64, error) {
	if err := j.enc.Encode(rec); err != nil {
		return 0, fmt.Errorf("append revocation journal: %w", err)
	}
	j.lastSeq = rec.Seq
	if rec.Epoch > j.epoch {
		j.epoch = rec.Epoch
	}
	j.pushTail(ReplRecord{Seq: rec.Seq, Epoch: rec.Epoch, Op: rec.Op, ID: rec.ID, Reason: rec.Reason, When: rec.When})
	j.sinceSnap++
	j.appends.Inc()
	j.syncMu.Lock()
	j.writeGen++
	gen := j.writeGen
	j.syncMu.Unlock()
	return gen, nil
}

// commitSync blocks until an fsync covering write generation gen has
// completed, electing this goroutine as the syncer when none is running.
// The elected syncer flushes everything written up to the moment it looks,
// so every writer queued behind it is covered by the one flush.
func (j *Journal) commitSync(gen uint64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	for {
		if j.syncGen >= gen {
			// Covered. A failed fsync poisons its whole cohort: if the flush
			// that covered gen reported an error, the record may not be
			// durable and the caller must hear about it. A later successful
			// fsync clears syncErr — at that point the data demonstrably
			// reached disk.
			return j.syncErr
		}
		if j.syncing {
			j.syncCond.Wait()
			continue
		}
		j.syncing = true
		target := j.writeGen
		j.syncMu.Unlock()

		j.mu.Lock()
		f := j.f
		j.mu.Unlock()
		var err error
		if f == nil {
			err = errJournalClosed
		} else if err = f.Sync(); err != nil {
			err = fmt.Errorf("sync revocation journal: %w", err)
		}
		j.fsyncs.Inc()

		j.syncMu.Lock()
		j.syncing = false
		if target > j.syncGen {
			j.syncGen = target
			j.syncErr = err
		}
		j.syncCond.Broadcast()
	}
}

// ApplyReplicated appends a batch of leader-issued records with their
// original sequence numbers and epochs, applies them to the registry in
// order, and fsyncs once for the whole batch. Records at or below the
// journal's current sequence are skipped (idempotent redelivery); a record
// that would leave a gap aborts the batch — internal/repl fences epochs
// and detects gaps *before* calling this, so the check here is defense in
// depth, not protocol. Returns how many records were applied.
func (j *Journal) ApplyReplicated(recs []ReplRecord) (int, error) {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return 0, errJournalClosed
	}
	applied := 0
	var gen uint64
	for _, rec := range recs {
		if rec.Seq <= j.lastSeq {
			continue
		}
		if rec.Seq != j.lastSeq+1 {
			j.mu.Unlock()
			if applied > 0 {
				// The contiguous prefix was written; make it durable before
				// reporting the gap so the follower's Status is honest.
				if err := j.commitSync(gen); err != nil {
					return applied, err
				}
			}
			return applied, fmt.Errorf("core: replicated record seq %d does not extend journal at %d", rec.Seq, j.lastSeq)
		}
		switch rec.Op {
		case "revoke", "unrevoke":
		default:
			j.mu.Unlock()
			return applied, fmt.Errorf("core: replicated record has unknown op %q", rec.Op)
		}
		g, err := j.writeLocked(journalRecord{Op: rec.Op, ID: rec.ID, Reason: rec.Reason, When: rec.When, Seq: rec.Seq, Epoch: rec.Epoch})
		if err != nil {
			j.mu.Unlock()
			return applied, err
		}
		gen = g
		switch rec.Op {
		case "revoke":
			j.reg.Revoke(rec.ID, rec.Reason)
		case "unrevoke":
			j.reg.Unrevoke(rec.ID)
		}
		applied++
	}
	var compactErr error
	if applied > 0 {
		compactErr = j.maybeCompactLocked()
	}
	j.mu.Unlock()
	if compactErr != nil {
		return applied, compactErr
	}
	if applied == 0 {
		return 0, nil
	}
	return applied, j.commitSync(gen)
}

// TailSince returns copies of the records with sequence numbers strictly
// above after, in order. ok is false when the journal can no longer serve
// that suffix contiguously — the tail was trimmed or compacted past it —
// in which case the caller must fall back to a snapshot.
func (j *Journal) TailSince(after uint64) (recs []ReplRecord, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after >= j.lastSeq {
		return nil, true
	}
	if len(j.tail) == 0 || j.tail[0].Seq > after+1 {
		return nil, false
	}
	i := len(j.tail)
	for i > 0 && j.tail[i-1].Seq > after {
		i--
	}
	out := make([]ReplRecord, len(j.tail)-i)
	copy(out, j.tail[i:])
	return out, true
}

// SnapshotState returns the journal's epoch, last sequence number and the
// complete revocation set — the payload a leader streams to a follower too
// far behind for the tail.
func (j *Journal) SnapshotState() (epoch, lastSeq uint64, entries []RevocationEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch, j.lastSeq, j.reg.Entries()
}

// InstallSnapshot replaces the journal's entire state with a leader
// snapshot: the file is atomically rewritten as a single snapshot record,
// the registry is reset to exactly entries (firing OnChange for the
// differences), and the sequence counter jumps to seq. The journal's epoch
// may only move forward.
func (j *Journal) InstallSnapshot(epoch, seq uint64, entries []RevocationEntry) error {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return errJournalClosed
	}
	if epoch < j.epoch {
		j.mu.Unlock()
		return fmt.Errorf("core: snapshot epoch %d below journal epoch %d", epoch, j.epoch)
	}
	if err := j.rewriteLocked(epoch, seq, entries); err != nil {
		j.mu.Unlock()
		return err
	}
	j.epoch = epoch
	j.lastSeq = seq
	j.reg.resetTo(entries)
	j.mu.Unlock()
	return nil
}

// Compact rewrites the journal file as one snapshot record of the current
// state. The mutation history before the snapshot is gone — a follower
// whose last durable seq predates it will be served the snapshot instead
// of a suffix.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	return j.rewriteLocked(j.epoch, j.lastSeq, j.reg.Entries())
}

// maybeCompactLocked runs an inline compaction when the auto-compact
// threshold is crossed. Caller holds j.mu.
func (j *Journal) maybeCompactLocked() error {
	if j.autoCompact <= 0 || j.sinceSnap < j.autoCompact {
		return nil
	}
	return j.rewriteLocked(j.epoch, j.lastSeq, j.reg.Entries())
}

// syncDir fsyncs a directory so a rename inside it is durable. A renamed
// file's data being on disk means nothing if the directory entry pointing
// at the new inode is lost with the page cache — after a power cut the
// journal would silently revert to its pre-compaction contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// rewriteLocked atomically replaces the journal file with a single
// snapshot record: write to a temp file, fsync, rename over the journal,
// fsync the directory (the rename itself is not durable until its
// directory entry is). On success the in-memory tail resets (the history
// is gone) and every pending group-commit waiter is released — their
// records are durable via the snapshot. Caller holds j.mu.
func (j *Journal) rewriteLocked(epoch, seq uint64, entries []RevocationEntry) error {
	tmpPath := j.path + ".tmp"
	tf, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	enc := json.NewEncoder(tf)
	rec := journalRecord{Op: "snapshot", When: time.Now(), Seq: seq, Epoch: epoch, Entries: entries}
	if err := enc.Encode(rec); err != nil {
		_ = tf.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		_ = tf.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	old := j.f
	j.f = tf
	j.enc = enc
	_ = old.Close()
	j.tail = j.tail[:0]
	j.sinceSnap = 0
	j.compactions.Inc()
	// The rename only persists once the directory entry does. Waiters must
	// not be told their records are durable before that — a power loss
	// could revert the whole file to its pre-compaction state, taking every
	// acknowledged append that rode the compaction with it.
	dirErr := syncDir(filepath.Dir(j.path))
	if dirErr != nil {
		dirErr = fmt.Errorf("sync revocation journal directory: %w", dirErr)
	}
	// Everything written before the rename is captured by the fsynced
	// snapshot: release any group-commit waiters — poisoned with the
	// directory-sync error if the rename's durability is in doubt.
	j.syncMu.Lock()
	if j.writeGen > j.syncGen {
		j.syncGen = j.writeGen
		j.syncErr = dirErr
	}
	j.syncCond.Broadcast()
	j.syncMu.Unlock()
	return dirErr
}

// Close releases the log file. The registry stays usable (read-only
// semantics — further journal mutations fail).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
