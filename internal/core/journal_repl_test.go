package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJournalSequencing pins the replication contract every mutation now
// carries: sequence numbers start at 1, increase by exactly one, and
// survive a restart together with the epoch.
func TestJournalSequencing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("a@x", "one"); err != nil {
		t.Fatal(err)
	}
	if err := j.Unrevoke("a@x"); err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("b@x", "two"); err != nil {
		t.Fatal(err)
	}
	if got := j.LastSeq(); got != 3 {
		t.Errorf("LastSeq = %d, want 3", got)
	}
	recs, ok := j.TailSince(0)
	if !ok || len(recs) != 3 {
		t.Fatalf("TailSince(0) = %d recs, ok=%v, want 3, true", len(recs), ok)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("rec %d seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Epoch != 3 {
			t.Errorf("rec %d epoch = %d, want 3", i, r.Epoch)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastSeq() != 3 || j2.Epoch() != 3 {
		t.Errorf("after reopen: seq %d epoch %d, want 3/3", j2.LastSeq(), j2.Epoch())
	}
	if !j2.Registry().IsRevoked("b@x") || j2.Registry().IsRevoked("a@x") {
		t.Error("replayed state wrong")
	}
}

// TestJournalLegacyUpgrade: a journal written before replication (records
// with no seq field) replays with synthesized sequence numbers, so an
// upgraded daemon is immediately replicable.
func TestJournalLegacyUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	legacy := `{"op":"revoke","id":"a@x","reason":"r1","when":"2025-01-01T00:00:00Z"}` + "\n" +
		`{"op":"revoke","id":"b@x","reason":"r2","when":"2025-01-01T00:00:01Z"}` + "\n" +
		`{"op":"unrevoke","id":"a@x","when":"2025-01-01T00:00:02Z"}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.LastSeq(); got != 3 {
		t.Errorf("LastSeq after legacy replay = %d, want 3", got)
	}
	if got := j.Epoch(); got != 0 {
		t.Errorf("Epoch after legacy replay = %d, want 0", got)
	}
	recs, ok := j.TailSince(0)
	if !ok || len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("legacy tail = %+v, ok=%v", recs, ok)
	}
	// The next native mutation extends the synthesized numbering.
	if err := j.Revoke("c@x", "r3"); err != nil {
		t.Fatal(err)
	}
	if got := j.LastSeq(); got != 4 {
		t.Errorf("LastSeq after append = %d, want 4", got)
	}
}

// TestJournalUnknownOpAccounting is the satellite-3 regression: a
// well-formed record whose op this build does not know is skipped and
// counted as such — not silently folded into Replayed — and, unlike
// corruption, does not stop replay of what follows.
func TestJournalUnknownOpAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	body := `{"op":"revoke","id":"a@x","when":"2025-01-01T00:00:00Z","seq":1}` + "\n" +
		`{"op":"rotate-epoch","fancy":"field","when":"2025-01-01T00:00:01Z","seq":2}` + "\n" +
		`{"op":"revoke","id":"b@x","when":"2025-01-01T00:00:02Z","seq":3}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.Replayed(); got != 2 {
		t.Errorf("Replayed = %d, want 2 (unknown op must not count)", got)
	}
	if got := j.UnknownOps(); got != 1 {
		t.Errorf("UnknownOps = %d, want 1", got)
	}
	if got := j.DroppedLines(); got != 0 {
		t.Errorf("DroppedLines = %d, want 0 (unknown op is not corruption)", got)
	}
	if !j.Registry().IsRevoked("b@x") {
		t.Error("record after the unknown op was not applied")
	}
}

// TestJournalCorruptMidFileLongSuffix extends the corrupt-tail accounting
// to the case the original test only brushed: a long once-valid suffix
// after a damaged line must be dropped entirely, with DroppedLines
// reporting the full extent (> 1 distinguishes body damage from the
// routine torn final write).
func TestJournalCorruptMidFileLongSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damaged.jsonl")
	var b strings.Builder
	b.WriteString(`{"op":"revoke","id":"keep@x","when":"2025-01-01T00:00:00Z"}` + "\n")
	b.WriteString("\x00\x01 not json at all\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, `{"op":"revoke","id":"lost%02d@x","when":"2025-01-01T00:00:01Z"}`+"\n", i)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("damaged journal rejected: %v", err)
	}
	defer j.Close()
	if got := j.Replayed(); got != 1 {
		t.Errorf("Replayed = %d, want 1", got)
	}
	if got := j.DroppedLines(); got != 21 {
		t.Errorf("DroppedLines = %d, want 21 (bad line + 20-line suffix)", got)
	}
	reg := j.Registry()
	if !reg.IsRevoked("keep@x") {
		t.Error("intact prefix lost")
	}
	for i := 0; i < 20; i++ {
		if reg.IsRevoked(fmt.Sprintf("lost%02d@x", i)) {
			t.Fatalf("record %d after the corruption point was applied", i)
		}
	}
}

// TestJournalGroupCommitConcurrent drives many concurrent revocations
// through the group-commit path and checks nothing is lost or misordered:
// every mutation is durable across a reopen and the sequence numbers are
// a permutation-free 1..N.
func TestJournalGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := j.Revoke(fmt.Sprintf("w%d-i%d@x", w, i), "concurrent"); err != nil {
					t.Errorf("revoke: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * perWriter
	if got := j.LastSeq(); got != total {
		t.Errorf("LastSeq = %d, want %d", got, total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Replayed(); got != total {
		t.Errorf("Replayed = %d, want %d", got, total)
	}
	if got := len(j2.Registry().Entries()); got != total {
		t.Errorf("entries after replay = %d, want %d", got, total)
	}
	recs, ok := j2.TailSince(0)
	if !ok {
		t.Fatal("tail lost")
	}
	seqs := make([]int, 0, len(recs))
	for _, r := range recs {
		seqs = append(seqs, int(r.Seq))
	}
	if !sort.IntsAreSorted(seqs) {
		t.Error("replayed tail out of order")
	}
	if len(seqs) != total || seqs[0] != 1 || seqs[len(seqs)-1] != total {
		t.Errorf("tail covers %d..%d (%d recs), want 1..%d", seqs[0], seqs[len(seqs)-1], len(seqs), total)
	}
}

// TestJournalApplyReplicated covers the follower-side write path:
// redelivered records are skipped, gaps abort, and applied records keep
// the leader's sequence numbers and epochs.
func TestJournalApplyReplicated(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "f.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	when := time.Now().UTC()
	batch := []ReplRecord{
		{Seq: 1, Epoch: 2, Op: "revoke", ID: "a@x", Reason: "r", When: when},
		{Seq: 2, Epoch: 2, Op: "revoke", ID: "b@x", Reason: "r", When: when},
		{Seq: 3, Epoch: 2, Op: "unrevoke", ID: "a@x", When: when},
	}
	if n, err := j.ApplyReplicated(batch); err != nil || n != 3 {
		t.Fatalf("ApplyReplicated = %d, %v; want 3, nil", n, err)
	}
	if j.LastSeq() != 3 || j.Registry().IsRevoked("a@x") || !j.Registry().IsRevoked("b@x") {
		t.Fatal("replicated state wrong")
	}
	// Redelivery of the same batch is a no-op.
	if n, err := j.ApplyReplicated(batch); err != nil || n != 0 {
		t.Fatalf("redelivery applied %d, %v; want 0, nil", n, err)
	}
	// A gap aborts without applying past it.
	if n, err := j.ApplyReplicated([]ReplRecord{{Seq: 9, Epoch: 2, Op: "revoke", ID: "gap@x", When: when}}); err == nil {
		t.Fatalf("gap accepted (applied %d)", n)
	}
	if j.Registry().IsRevoked("gap@x") {
		t.Error("gapped record applied")
	}
	// Unknown op in a replicated record is refused, not persisted.
	if _, err := j.ApplyReplicated([]ReplRecord{{Seq: 4, Epoch: 2, Op: "frob", ID: "z@x", When: when}}); err == nil {
		t.Fatal("unknown replicated op accepted")
	}
}

// TestJournalTailSince pins the suffix-serving contract TailSince gives
// the leader: exact suffixes while the tail holds them, a clean miss once
// trimming has dropped the requested range.
func TestJournalTailSince(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetTailLimit(4)
	for i := 0; i < 12; i++ {
		if err := j.Revoke(fmt.Sprintf("id%02d@x", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// Caught up: empty suffix, served.
	if recs, ok := j.TailSince(12); !ok || len(recs) != 0 {
		t.Errorf("TailSince(12) = %d recs, ok=%v; want 0, true", len(recs), ok)
	}
	// Recent suffix: served in order.
	recs, ok := j.TailSince(10)
	if !ok || len(recs) != 2 || recs[0].Seq != 11 || recs[1].Seq != 12 {
		t.Errorf("TailSince(10) = %+v, ok=%v", recs, ok)
	}
	// Ancient suffix: trimmed away, the caller must snapshot.
	if _, ok := j.TailSince(0); ok {
		t.Error("TailSince(0) served a suffix the 4-record tail cannot hold")
	}
}

// TestJournalInstallSnapshot: installing a snapshot rewrites the file as
// one record and resets the registry to exactly the snapshot set, fires
// listeners for the symmetric difference, stops serving the suffix it
// replaced, refuses epoch regressions, and survives a reopen together with
// an append made after the file swap.
func TestJournalInstallSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := j.Registry()
	var mu sync.Mutex
	changed := map[string]int{}
	reg.OnChange(func(id string) { mu.Lock(); changed[id]++; mu.Unlock() })

	if err := j.Revoke("old@x", "pre"); err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("both@x", "pre"); err != nil {
		t.Fatal(err)
	}
	when := time.Now().UTC()
	snap := []RevocationEntry{
		{ID: "both@x", Reason: "kept", When: when},
		{ID: "new@x", Reason: "snap", When: when},
	}
	if err := j.InstallSnapshot(7, 40, snap); err != nil {
		t.Fatal(err)
	}
	if j.Epoch() != 7 || j.LastSeq() != 40 {
		t.Errorf("after install: epoch %d seq %d, want 7/40", j.Epoch(), j.LastSeq())
	}
	if reg.IsRevoked("old@x") || !reg.IsRevoked("new@x") || !reg.IsRevoked("both@x") {
		t.Error("snapshot state wrong")
	}
	// old@x: its Revoke and the snapshot's reinstatement; both@x: its
	// Revoke only (the snapshot keeps it); new@x: the snapshot's revoke.
	mu.Lock()
	if want := map[string]int{"old@x": 2, "both@x": 1, "new@x": 1}; !maps.Equal(changed, want) {
		t.Errorf("listener diff wrong: changed=%v, want %v", changed, want)
	}
	mu.Unlock()

	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines != 1 {
		t.Errorf("journal after install has %d lines, want 1", lines)
	}
	if _, ok := j.TailSince(1); ok {
		t.Error("suffix from before the snapshot still served")
	}
	if err := j.InstallSnapshot(3, 50, nil); err == nil {
		t.Fatal("epoch regression accepted")
	}
	// Appends keep working after the file swap.
	if err := j.Revoke("post@x", "after"); err != nil {
		t.Fatal(err)
	}
	if got := j.LastSeq(); got != 41 {
		t.Errorf("LastSeq after install+append = %d, want 41", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Epoch() != 7 || j2.LastSeq() != 41 {
		t.Errorf("after reopen: epoch %d seq %d, want 7/41", j2.Epoch(), j2.LastSeq())
	}
	reg2 := j2.Registry()
	if !reg2.IsRevoked("new@x") || reg2.IsRevoked("old@x") || !reg2.IsRevoked("post@x") {
		t.Error("installed snapshot or the append after it lost across reopen")
	}
}

// TestJournalSetEpochRegress pins the fencing precondition: the journal
// never moves its epoch backwards.
func TestJournalSetEpochRegress(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "e.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.SetEpoch(4); err != nil {
		t.Fatal(err)
	}
	if err := j.SetEpoch(4); err != nil {
		t.Errorf("same-epoch SetEpoch refused: %v", err)
	}
	if err := j.SetEpoch(2); err == nil {
		t.Fatal("epoch regression accepted")
	}
}

// TestRegistryOnChange pins the listener's two directions: it fires on a
// Revoke and on an Unrevoke that actually reinstated the identity, and not
// on one that reinstated nothing.
func TestRegistryOnChange(t *testing.T) {
	reg := NewRegistry()
	var got []string
	reg.OnChange(func(id string) { got = append(got, id) })
	reg.Revoke("a@x", "r")
	if reg.Unrevoke("a@x") != true {
		t.Fatal("unrevoke of revoked identity reported false")
	}
	if reg.Unrevoke("never@x") != false {
		t.Fatal("unrevoke of unknown identity reported true")
	}
	if !slices.Equal(got, []string{"a@x", "a@x"}) {
		t.Errorf("OnChange fired for %v, want [a@x a@x]: the revoke and the reinstatement only", got)
	}
}
