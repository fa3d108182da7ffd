package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestJournalPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Revoke("alice@example.com", "compromised"); err != nil {
		t.Fatal(err)
	}
	if err := j1.Revoke("bob@example.com", "departed"); err != nil {
		t.Fatal(err)
	}
	if err := j1.Unrevoke("alice@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay the journal.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reg := j2.Registry()
	if reg.IsRevoked("alice@example.com") {
		t.Error("unrevoked identity revoked after replay")
	}
	if !reg.IsRevoked("bob@example.com") {
		t.Error("revocation lost across restart")
	}
	entries := reg.Entries()
	if len(entries) != 1 || entries[0].Reason != "departed" {
		t.Errorf("entries after replay: %+v", entries)
	}
}

// TestJournalEpochDurableAcrossReopen pins the fence's durability: an
// epoch adopted via SetEpoch (the not_leader write fence a replication
// leader arms on a follower) must survive a restart — a journal that
// replayed back to epoch 0 would silently accept direct self-sequenced
// mutations again. The epoch record consumes no sequence number and never
// enters the replication tail.
func TestJournalEpochDurableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Revoke("alice@example.com", "pre-fence"); err != nil {
		t.Fatal(err)
	}
	if err := j1.SetEpoch(7); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-set writes nothing new; regression is refused.
	if err := j1.SetEpoch(7); err != nil {
		t.Fatal(err)
	}
	if err := j1.SetEpoch(3); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if seq := j1.LastSeq(); seq != 1 {
		t.Errorf("SetEpoch consumed a sequence number: lastSeq = %d, want 1", seq)
	}
	if recs, ok := j1.TailSince(0); !ok || len(recs) != 1 {
		t.Errorf("tail after SetEpoch = %d records (ok %v), want the 1 mutation only", len(recs), ok)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if epoch := j2.Epoch(); epoch != 7 {
		t.Errorf("epoch after reopen = %d, want 7 (fence must survive restart)", epoch)
	}
	if seq := j2.LastSeq(); seq != 1 {
		t.Errorf("lastSeq after reopen = %d, want 1", seq)
	}
	if j2.UnknownOps() != 0 {
		t.Errorf("epoch record misread as %d unknown op(s)", j2.UnknownOps())
	}
	if !j2.Registry().IsRevoked("alice@example.com") {
		t.Error("mutation lost across reopen")
	}
}

func TestJournalToleratesTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("alice@example.com", "x"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"revoke","id":"bo`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	defer j2.Close()
	if !j2.Registry().IsRevoked("alice@example.com") {
		t.Error("intact prefix lost")
	}
	if j2.Registry().IsRevoked("bo") {
		t.Error("torn record applied")
	}
}

func TestJournalClosedRejectsMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.Revoke("x", "y"); err == nil {
		t.Fatal("revoke on closed journal accepted")
	}
	if err := j.Unrevoke("x"); err == nil {
		t.Fatal("unrevoke on closed journal accepted")
	}
}

func TestJournalOpenErrors(t *testing.T) {
	if _, err := OpenJournal(filepath.Join(t.TempDir(), "missing-dir", "j.jsonl")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestJournalGatesSEM(t *testing.T) {
	// The journal's registry plugs into a SEM like any other.
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sem := NewExpSEM(j.Registry())
	_ = sem
	if err := j.Revoke("a@x", "test"); err != nil {
		t.Fatal(err)
	}
	if err := j.Registry().Check("a@x"); !errors.Is(err, ErrRevoked) {
		t.Fatal("journal mutation not visible through registry")
	}
}

// TestJournalCorruptTailAccounting is the regression test for the silent
// replay stop: corruption must be *visible* — replayed-record and
// dropped-line counts — and a valid suffix after a corrupt line must not
// be silently applied (the stop-at-corruption policy stands, loudly).
func TestJournalCorruptTailAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("alice@example.com", "one"); err != nil {
		t.Fatal(err)
	}
	if err := j.Revoke("bob@example.com", "two"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Mid-file corruption: a damaged line followed by records that were
	// once valid.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{corrupt!!\n" +
		`{"op":"revoke","id":"carol@example.com"}` + "\n" +
		`{"op":"unrevoke","id":"alice@example.com"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("corrupt journal rejected: %v", err)
	}
	defer j2.Close()
	if got := j2.Replayed(); got != 2 {
		t.Errorf("Replayed = %d, want 2", got)
	}
	if got := j2.DroppedLines(); got != 3 {
		t.Errorf("DroppedLines = %d, want 3 (corrupt line + abandoned suffix)", got)
	}
	reg := j2.Registry()
	if !reg.IsRevoked("alice@example.com") || !reg.IsRevoked("bob@example.com") {
		t.Error("intact prefix lost")
	}
	if reg.IsRevoked("carol@example.com") {
		t.Error("record after the corruption point was applied")
	}

	// The torn-final-write crash signature stays the routine case: exactly
	// one dropped line.
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, []byte(`{"op":"revoke","id":"a"}`+"\n"+`{"op":"rev`), 0o600); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Replayed() != 1 || j3.DroppedLines() != 1 {
		t.Errorf("torn write: replayed %d dropped %d, want 1/1", j3.Replayed(), j3.DroppedLines())
	}
}

// TestJournalInstrument covers the observability hook: append latency is
// recorded and the replay gauges reflect OpenJournal's accounting.
func TestJournalInstrument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "revocations.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := obs.NewRegistry()
	j.Instrument(reg)
	if err := j.Revoke("alice@example.com", "x"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "journal_append_seconds_count 1") {
		t.Errorf("append latency not recorded:\n%s", out)
	}
	if !strings.Contains(out, "journal_replayed_records 0") {
		t.Errorf("replay gauge missing:\n%s", out)
	}
}
