package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// is written before it takes effect and acknowledged only once it is
// durable, and OpenJournal replays the log on startup. cmd/semd wires this
// behind its -journal flag.
//
// The journal is also the unit of replication: every mutation carries a
// monotonically increasing sequence number and the epoch of the leader that
// issued it, the journal keeps an in-memory tail of recent records so a
// leader can stream the suffix a follower is missing, and a follower too far
// behind installs a snapshot, which rewrites its log as a single record.
// internal/repl builds the leader/follower protocol on top of these
// primitives; the journal itself stays transport-agnostic. It reaches the
// disk only through journalFS.

// journalRecord is one line of the append-only log. Seq/Epoch are zero on
// logs written before replication existed ("legacy" records); replay
// assigns those sequential numbers so an upgraded journal is immediately
// replicable. Op "snapshot" replaces the whole state: Entries holds the
// complete revocation set as of Seq, and replay discards everything before
// it. Op "epoch" durably records an epoch adoption (a follower fenced by a
// new leader, or a leader assuming its term): it raises the journal's epoch
// without consuming a sequence number, so the not_leader write fence
// survives a restart.
type journalRecord struct {
	ReplRecord
	Entries []RevocationEntry `json:"entries,omitempty"`
}

// ReplRecord is one replicable journal mutation — the unit internal/repl
// ships from leader to follower, and the body of its journal line. Op uses
// the journal's own op names ("revoke"/"unrevoke"); snapshot records never
// appear here, they travel over the dedicated snapshot path, and epoch
// records are local fencing state that no leader ships.
type ReplRecord struct {
	Op     string    `json:"op"` // "revoke" | "unrevoke" | "snapshot" | "epoch"
	ID     string    `json:"id,omitempty"`
	Reason string    `json:"reason,omitempty"`
	When   time.Time `json:"when"`
	Seq    uint64    `json:"seq,omitempty"`
	Epoch  uint64    `json:"epoch,omitempty"`
}

// journalFS is every file-system call the journal makes. OpenJournal uses
// osFS; TestJournalCrashPoints replays every crash point of a recording fake.
type journalFS interface {
	// OpenFile opens name with os.O_* flags, creating it with mode 0600.
	OpenFile(name string, flag int) (journalFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the creates, renames and removes in dir durable.
	SyncDir(dir string) error
}

// journalFile is an open log: read once by replay, appended to after.
type journalFile interface {
	io.ReadWriteCloser
	Sync() error
}

// osFS is journalFS on the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int) (journalFile, error) {
	f, err := os.OpenFile(name, flag, 0o600)
	if err != nil {
		return nil, err // an untyped nil, not a nil *os.File in the interface
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
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

// defaultTailLimit bounds the in-memory record tail kept for serving
// replication suffixes. A follower further behind than this is served a
// snapshot instead, so the limit trades leader memory against how long a
// follower may be down and still catch up incrementally.
const defaultTailLimit = 1024

var errJournalClosed = errors.New("core: journal is closed")

// Journal is a Registry bound to an append-only log file. It embeds the
// registry semantics by delegation (not embedding, to keep the persisted
// mutations on the write path).
type Journal struct {
	mu   sync.Mutex
	reg  *Registry
	fs   journalFS
	f    journalFile
	enc  *json.Encoder
	path string

	lastSeq uint64
	epoch   uint64

	// tail holds the most recent records (ascending Seq, contiguous) so
	// TailSince can serve a follower's catch-up without re-reading the file.
	// Trimmed to tailLimit amortized; empty right after a snapshot.
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

	replayed     int
	droppedLines int
	unknownOps   int

	appendTime  *obs.Histogram
	appends     *obs.Counter
	fsyncs      *obs.Counter
	compactions *obs.Counter
}

// OpenJournal opens (creating if needed) the log at path, replays it into
// a fresh Registry and returns the bound journal. A corrupt or torn tail (a
// crash mid-write) is tolerated: replay stops at the first line that does
// not decode or does not end in a newline. The outcome is never silent —
// Replayed reports how many records took effect, DroppedLines how many
// non-empty lines were abandoned at and after that point, and UnknownOps how
// many well-formed records carried an op this build does not understand
// (skipped, not applied — a journal written by a newer version). cmd/semd
// logs all three at startup. A journal that dropped lines is rewritten as
// one snapshot of what replayed before it is returned: a record appended
// after the damage would be dropped with it at the next replay.
func OpenJournal(path string) (*Journal, error) { return openJournal(osFS{}, path) }

func openJournal(fsys journalFS, path string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("open revocation journal: %w", err)
	}
	j := &Journal{reg: NewRegistry(), fs: fsys, f: f, enc: json.NewEncoder(f), path: path, tailLimit: defaultTailLimit}
	j.syncCond = sync.NewCond(&j.syncMu)
	if err := j.replay(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("replay revocation journal: %w", err)
	}
	if j.droppedLines > 0 {
		err = j.rewriteLocked(j.epoch, j.lastSeq, j.reg.Entries())
	} else {
		// A file just created is not durable until its directory entry is.
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		_ = j.f.Close()
		return nil, fmt.Errorf("open revocation journal: %w", err)
	}
	return j, nil
}

// replay applies the log line by line until the first line that does not
// decode, or a last line the crash cut before its newline (even one that
// decodes: it was never acknowledged, and the next append would run into
// it). That line and every one after it count as dropped.
func (j *Journal) replay() error {
	r := bufio.NewReader(j.f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return err
		}
		var rec journalRecord
		switch {
		case len(bytes.TrimSpace(line)) == 0:
		case j.droppedLines > 0 || err == io.EOF || json.Unmarshal(line, &rec) != nil:
			// Past the first bad line everything counts: a long valid suffix
			// after it means real damage, not a torn final write.
			j.droppedLines++
		case rec.Op == "revoke" || rec.Op == "unrevoke":
			if rec.Seq == 0 { // legacy: written before replication
				rec.Seq = j.lastSeq + 1
			}
			fallthrough
		case rec.Op == "snapshot" || rec.Op == "epoch":
			j.apply(rec)
			j.replayed++
		default:
			// A record from a newer build. Counting it as replayed would
			// overstate how much of the journal took effect, so it is
			// accounted separately and the operator decides whether to care.
			j.unknownOps++
		}
		if err == io.EOF {
			return nil
		}
	}
}

// apply makes a record take effect: the one place a record changes the
// registry, the sequence number, the epoch and the tail, whether it was
// just written, replicated or replayed. The registry holds the record's
// own time. Caller holds j.mu (or, in OpenJournal, owns j).
func (j *Journal) apply(rec journalRecord) {
	switch rec.Op {
	case "revoke":
		j.reg.revoke(RevocationEntry{ID: rec.ID, Reason: rec.Reason, When: rec.When})
		j.pushTail(rec.ReplRecord)
	case "unrevoke":
		j.reg.Unrevoke(rec.ID)
		j.pushTail(rec.ReplRecord)
	case "snapshot":
		// A snapshot supersedes everything before it, and may move the
		// sequence back (a follower ahead of a replacement leader).
		j.reg.resetTo(rec.Entries)
		j.lastSeq, j.tail = rec.Seq, j.tail[:0]
	}
	j.lastSeq = max(j.lastSeq, rec.Seq)
	j.epoch = max(j.epoch, rec.Epoch)
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
// abandoned at and after the first undecodable or torn one. 0 means a clean
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
// reopening the self-sequencing write path at epoch 0. The record consumes
// no sequence number and never enters the replication tail. Setting the
// epoch the journal already holds is a no-op and writes nothing.
func (j *Journal) SetEpoch(epoch uint64) error {
	j.mu.Lock()
	cur := j.epoch
	var gen uint64
	var err error
	if epoch > cur {
		gen, err = j.writeLocked(journalRecord{ReplRecord: ReplRecord{Op: "epoch", When: time.Now(), Seq: j.lastSeq, Epoch: epoch}})
	}
	j.mu.Unlock()
	switch {
	case epoch < cur:
		return fmt.Errorf("core: journal already at epoch %d, refusing to regress to %d", cur, epoch)
	case epoch == cur:
		return nil
	case err != nil:
		return err
	}
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
	j.compactions = reg.Counter("journal_compactions_total", "journal rewrites as one snapshot record (snapshot installs)")
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
	gen, err := j.writeLocked(journalRecord{ReplRecord: ReplRecord{Op: op, ID: id, Reason: reason, When: time.Now(), Seq: j.lastSeq + 1, Epoch: j.epoch}})
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

// writeLocked writes rec to the OS, applies it and returns the write
// generation the caller must wait on for durability. Caller holds j.mu.
//
// A write that fails may have left part of its line in the file, and a
// record appended after those bytes would share their line and be dropped
// with it at the next replay. So a failure leaves j.enc nil, and the next
// write first rewrites the file as one snapshot of what has been applied
// (rewriteLocked), which also gives it a fresh encoder: a json.Encoder
// keeps its first write error.
func (j *Journal) writeLocked(rec journalRecord) (uint64, error) {
	if j.f == nil {
		return 0, errJournalClosed
	}
	if j.enc == nil {
		if err := j.rewriteLocked(j.epoch, j.lastSeq, j.reg.Entries()); err != nil {
			return 0, fmt.Errorf("append revocation journal: %w", err)
		}
	}
	if err := j.enc.Encode(rec); err != nil {
		j.enc = nil
		return 0, fmt.Errorf("append revocation journal: %w", err)
	}
	j.apply(rec)
	j.appends.Inc()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.writeGen++
	return j.writeGen, nil
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
// original sequence numbers, epochs and times, applies them to the registry
// in order, and fsyncs once for the whole batch. Records at or below the
// journal's current sequence are skipped (idempotent redelivery); a record
// that would leave a gap aborts the batch — internal/repl fences epochs
// and detects gaps *before* calling this, so the check here is defense in
// depth, not protocol. The contiguous prefix written before an abort is
// made durable before the error is returned, so the follower's Status is
// honest. Returns how many records were applied.
func (j *Journal) ApplyReplicated(recs []ReplRecord) (int, error) {
	j.mu.Lock()
	applied, gen := 0, uint64(0)
	var err error
	for _, rec := range recs {
		if rec.Seq <= j.lastSeq {
			continue
		}
		if rec.Seq != j.lastSeq+1 {
			err = fmt.Errorf("core: replicated record seq %d does not extend journal at %d", rec.Seq, j.lastSeq)
			break
		}
		if rec.Op != "revoke" && rec.Op != "unrevoke" {
			err = fmt.Errorf("core: replicated record has unknown op %q", rec.Op)
			break
		}
		g, werr := j.writeLocked(journalRecord{ReplRecord: rec})
		if werr != nil {
			err = werr
			break
		}
		gen = g
		applied++
	}
	j.mu.Unlock()
	if applied > 0 {
		if serr := j.commitSync(gen); serr != nil {
			return applied, serr
		}
	}
	return applied, err
}

// TailSince returns copies of the records with sequence numbers strictly
// above after, in order. ok is false when the journal can no longer serve
// that suffix contiguously — the tail was trimmed past it or a snapshot
// replaced it — in which case the caller must fall back to a snapshot.
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
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	if epoch < j.epoch {
		return fmt.Errorf("core: snapshot epoch %d below journal epoch %d", epoch, j.epoch)
	}
	return j.rewriteLocked(epoch, seq, entries)
}

// rewriteLocked atomically replaces the journal file with a single
// snapshot record and applies it: write a temp file, fsync, rename over the
// journal, fsync the directory (the rename itself is not durable until its
// directory entry is). Then every pending group-commit waiter is released —
// their records are durable via the snapshot. Caller holds j.mu.
func (j *Journal) rewriteLocked(epoch, seq uint64, entries []RevocationEntry) error {
	rec := journalRecord{ReplRecord: ReplRecord{Op: "snapshot", When: time.Now(), Seq: seq, Epoch: epoch}, Entries: entries}
	tmpPath := j.path + ".tmp"
	tf, err := j.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	enc := json.NewEncoder(tf)
	if err = enc.Encode(rec); err == nil {
		if err = tf.Sync(); err == nil {
			err = j.fs.Rename(tmpPath, j.path)
		}
	}
	if err != nil {
		_ = tf.Close()
		_ = j.fs.Remove(tmpPath)
		return fmt.Errorf("compact revocation journal: %w", err)
	}
	_ = j.f.Close()
	j.f, j.enc = tf, enc
	j.apply(rec)
	j.compactions.Inc()
	// Waiters must not be told their records are durable before the rename
	// is — a power loss could revert the whole file to its old contents,
	// taking every acknowledged append that rode the rewrite with it.
	if err = j.fs.SyncDir(filepath.Dir(j.path)); err != nil {
		err = fmt.Errorf("sync revocation journal directory: %w", err)
	}
	// Everything written before the rename is captured by the fsynced
	// snapshot: release the group-commit waiters — poisoned with the
	// directory-sync error if the rename's durability is in doubt.
	j.syncMu.Lock()
	if j.writeGen > j.syncGen {
		j.syncGen = j.writeGen
		j.syncErr = err
	}
	j.syncCond.Broadcast()
	j.syncMu.Unlock()
	return err
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
