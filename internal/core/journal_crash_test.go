package core

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"
)

// crashPath is where the crash-point tests keep their journal.
const crashPath = "/var/semd/revocations.jsonl"

// fsEvent is one logged call of crashFS that changes the disk.
type fsEvent struct {
	op       string // "create" | "truncate" | "write" | "sync" | "rename" | "remove" | "syncdir"
	ino      int    // the file of create, truncate, write and sync
	name, to string // the names of create, rename and remove
	data     []byte // what write wrote
}

func (e fsEvent) String() string {
	switch e.op {
	case "create", "remove":
		return fmt.Sprintf("%s %s (inode %d)", e.op, e.name, e.ino)
	case "rename":
		return fmt.Sprintf("rename %s → %s", e.name, e.to)
	case "write":
		return fmt.Sprintf("write %d bytes to inode %d", len(e.data), e.ino)
	}
	return fmt.Sprintf("%s inode %d", e.op, e.ino)
}

// crashDisk is what a crash can leave: each file's bytes and the bytes it
// had at its last Sync, by inode; the directory's names and the names it
// had at its last SyncDir. A create or rename is durable only once the
// directory is synced.
type crashDisk struct {
	data, synced   [][]byte
	names, durable map[string]int
}

func newCrashDisk(image map[string][]byte) *crashDisk {
	d := &crashDisk{names: map[string]int{}, durable: map[string]int{}}
	names := make([]string, 0, len(image))
	for name := range image {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		d.names[name], d.durable[name] = len(d.data), len(d.data)
		d.data = append(d.data, slices.Clone(image[name]))
		d.synced = append(d.synced, slices.Clone(image[name]))
	}
	return d
}

func (d *crashDisk) clone() *crashDisk {
	// A write clips before it appends and a sync copies synced, so the
	// files' bytes can be shared.
	return &crashDisk{data: slices.Clone(d.data), synced: d.synced, names: maps.Clone(d.names), durable: d.durable}
}

func (d *crashDisk) do(e fsEvent) {
	switch e.op {
	case "create":
		d.names[e.name] = e.ino
		d.data, d.synced = append(d.data, nil), append(d.synced, nil)
	case "truncate":
		d.data[e.ino] = nil
	case "write":
		d.data[e.ino] = append(slices.Clip(d.data[e.ino]), e.data...)
	case "sync":
		d.synced = slices.Clone(d.synced)
		d.synced[e.ino] = slices.Clone(d.data[e.ino])
	case "rename":
		d.names[e.to] = d.names[e.name]
		delete(d.names, e.name)
	case "remove":
		delete(d.names, e.name)
	case "syncdir":
		d.durable = maps.Clone(d.names)
	}
}

// image is the files a crash leaves: every name with its file's bytes when
// the process died and the OS survived, only the synced names with their
// synced bytes when the power went.
func (d *crashDisk) image(powerLoss bool) map[string][]byte {
	names, data := d.names, d.data
	if powerLoss {
		names, data = d.durable, d.synced
	}
	img := make(map[string][]byte, len(names))
	for name, ino := range names {
		img[name] = data[ino]
	}
	return img
}

// crashFS is a journalFS on a crashDisk that logs every call changing it.
// While full is set the disk has no room: a write stores the first half of
// its bytes and fails with ENOSPC.
type crashFS struct {
	mu   sync.Mutex
	disk *crashDisk
	log  []fsEvent
	full bool
}

func newCrashFS(image map[string][]byte) *crashFS { return &crashFS{disk: newCrashDisk(image)} }

// record applies and logs e. Caller holds fs.mu.
func (fs *crashFS) record(e fsEvent) {
	fs.disk.do(e)
	fs.log = append(fs.log, e)
}

// pos is how many calls the log holds.
func (fs *crashFS) pos() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.log)
}

func (fs *crashFS) OpenFile(name string, flag int) (journalFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.disk.names[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, os.ErrNotExist
	case !ok:
		ino = len(fs.disk.data)
		fs.record(fsEvent{op: "create", name: name, ino: ino})
	case flag&os.O_TRUNC != 0:
		fs.record(fsEvent{op: "truncate", ino: ino})
	}
	return &crashFile{fs: fs, ino: ino}, nil
}

func (fs *crashFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.disk.names[oldpath]; !ok {
		return os.ErrNotExist
	}
	fs.record(fsEvent{op: "rename", name: oldpath, to: newpath})
	return nil
}

func (fs *crashFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.disk.names[name]; !ok {
		return os.ErrNotExist
	}
	fs.record(fsEvent{op: "remove", name: name})
	return nil
}

func (fs *crashFS) SyncDir(string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.record(fsEvent{op: "syncdir"})
	return nil
}

// crashFile is an open file of a crashFS. Every write appends, as the
// journal opens every file O_APPEND.
type crashFile struct {
	fs     *crashFS
	ino    int
	off    int
	closed bool
}

func (f *crashFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b := f.fs.disk.data[f.ino]
	if f.off >= len(b) {
		return 0, io.EOF
	}
	n := copy(p, b[f.off:])
	f.off += n
	return n, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.fs.full {
		n := len(p) / 2
		f.fs.record(fsEvent{op: "write", ino: f.ino, data: slices.Clone(p[:n])})
		return n, syscall.ENOSPC
	}
	f.fs.record(fsEvent{op: "write", ino: f.ino, data: slices.Clone(p)})
	return len(p), nil
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	if f.closed {
		f.fs.mu.Unlock()
		return os.ErrClosed
	}
	f.fs.record(fsEvent{op: "sync", ino: f.ino})
	f.fs.mu.Unlock()
	runtime.Gosched() // let writers queue behind the flush, as a real one makes them
	return nil
}

func (f *crashFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}

// crashAck is a journal call that returned: from log position pos on, every
// image must be at sequence seq and epoch epoch or beyond.
type crashAck struct {
	pos        int
	seq, epoch uint64
	what       string
}

// crashRefs is the registry the journal held after each sequence number.
type crashRefs map[uint64]map[string]RevocationEntry

func entryMap(reg *Registry) map[string]RevocationEntry {
	m := map[string]RevocationEntry{}
	for _, e := range reg.Entries() {
		m[e.ID] = e
	}
	return m
}

// sameEntries compares revocation sets by identity, reason and instant.
func sameEntries(a, b map[string]RevocationEntry) bool {
	return maps.EqualFunc(a, b, func(x, y RevocationEntry) bool {
		return x.ID == y.ID && x.Reason == y.Reason && x.When.Equal(y.When)
	})
}

// runCrashScript drives one journal on a fresh crashFS through concurrent
// revokes and unrevokes (group commit), SetEpoch, a replicated batch, a
// snapshot install and appends after it. It returns the log, every call
// that returned, and the registry after each sequence number.
func runCrashScript(t *testing.T) ([]fsEvent, []crashAck, crashRefs) {
	fs := newCrashFS(nil)
	j, err := openJournal(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	var acks []crashAck
	ack := func(what string, seq, epoch uint64) {
		acks = append(acks, crashAck{pos: fs.pos(), seq: seq, epoch: epoch, what: what})
	}

	// Four writers at once: revoke two identities, reinstate the first.
	type call struct {
		op, id string
		pos    int
	}
	var mu sync.Mutex
	var calls []call
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := fmt.Sprintf("w%d-a@x", w), fmt.Sprintf("w%d-b@x", w)
			for _, c := range []call{{op: "revoke", id: a}, {op: "revoke", id: b}, {op: "unrevoke", id: a}} {
				var err error
				if c.op == "revoke" {
					err = j.Revoke(c.id, "group")
				} else {
					err = j.Unrevoke(c.id)
				}
				if err != nil {
					t.Error(err)
					return
				}
				c.pos = fs.pos()
				mu.Lock()
				calls = append(calls, c)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := j.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	ack("SetEpoch(3)", 0, 3)
	base := j.LastSeq()
	when := time.Date(2003, 7, 13, 12, 0, 0, 0, time.UTC)
	batch := []ReplRecord{
		{Seq: base + 1, Epoch: 3, Op: "revoke", ID: "r1@x", Reason: "shipped", When: when},
		{Seq: base + 2, Epoch: 3, Op: "unrevoke", ID: "w0-b@x", When: when},
		{Seq: base + 3, Epoch: 3, Op: "revoke", ID: "r2@x", Reason: "shipped", When: when.Add(time.Second)},
	}
	if n, err := j.ApplyReplicated(batch); err != nil || n != len(batch) {
		t.Fatalf("ApplyReplicated = %d, %v", n, err)
	}
	ack("ApplyReplicated", base+3, 3)
	pre, ok := j.TailSince(0)
	if !ok {
		t.Fatal("tail lost before the snapshot")
	}
	for _, c := range calls {
		i := slices.IndexFunc(pre, func(r ReplRecord) bool { return r.Op == c.op && r.ID == c.id })
		acks = append(acks, crashAck{pos: c.pos, seq: pre[i].Seq, what: c.op + " " + c.id})
	}

	snapSeq := base + 10
	snap := []RevocationEntry{{ID: "s1@x", Reason: "snap", When: when}, {ID: "r1@x", Reason: "shipped", When: when}}
	if err := j.InstallSnapshot(5, snapSeq, snap); err != nil {
		t.Fatal(err)
	}
	ack("InstallSnapshot", snapSeq, 5)
	for _, id := range []string{"p1@x", "s1@x", "p2@x"} {
		if id == "s1@x" {
			err = j.Unrevoke(id)
		} else {
			err = j.Revoke(id, "post")
		}
		if err != nil {
			t.Fatal(err)
		}
		ack("after the snapshot: "+id, j.LastSeq(), 5)
	}
	post, ok := j.TailSince(snapSeq)
	if !ok {
		t.Fatal("tail lost after the snapshot")
	}

	refs := crashRefs{0: {}}
	state := map[string]RevocationEntry{}
	fold := func(recs []ReplRecord) {
		for _, r := range recs {
			if r.Op == "revoke" {
				state[r.ID] = RevocationEntry{ID: r.ID, Reason: r.Reason, When: r.When}
			} else {
				delete(state, r.ID)
			}
			refs[r.Seq] = maps.Clone(state)
		}
	}
	fold(pre)
	state = map[string]RevocationEntry{}
	for _, e := range snap {
		state[e.ID] = e
	}
	refs[snapSeq] = maps.Clone(state)
	fold(post)
	if got := entryMap(j.Registry()); !sameEntries(got, refs[j.LastSeq()]) {
		t.Fatalf("live registry %v, want its records' %v", got, refs[j.LastSeq()])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.log, acks, refs
}

// checkCrashImage opens a journal on image and checks (I2) against the
// calls that returned before the crash, the epoch fence, and the torn-tail
// report. Then it appends, loses power, and checks that the append survives
// the next open.
func checkCrashImage(image map[string][]byte, torn bool, returned []crashAck, refs crashRefs) error {
	fs := newCrashFS(image)
	j, err := openJournal(fs, crashPath)
	if err != nil {
		return fmt.Errorf("open: %v", err)
	}
	seq, epoch := j.LastSeq(), j.Epoch()
	for _, a := range returned {
		if seq < a.seq || epoch < a.epoch {
			return fmt.Errorf("lost %s: journal at seq %d epoch %d, the call returned at seq %d epoch %d", a.what, seq, epoch, a.seq, a.epoch)
		}
	}
	want, ok := refs[seq]
	if !ok {
		return fmt.Errorf("seq %d is no state the journal passed through", seq)
	}
	if got := entryMap(j.Registry()); !sameEntries(got, want) {
		return fmt.Errorf("registry at seq %d = %v, want %v", seq, got, want)
	}
	wantDropped := 0
	if torn {
		wantDropped = 1
	}
	if j.DroppedLines() != wantDropped {
		return fmt.Errorf("DroppedLines = %d, want %d", j.DroppedLines(), wantDropped)
	}
	if err := j.Revoke("after-crash@x", "recovered"); err != nil {
		return fmt.Errorf("append after recovery: %v", err)
	}
	fs.mu.Lock()
	survivor := fs.disk.image(true)
	fs.mu.Unlock()
	again, err := openJournal(newCrashFS(survivor), crashPath)
	if err != nil {
		return fmt.Errorf("reopen after recovery: %v", err)
	}
	if again.LastSeq() != seq+1 || !again.Registry().IsRevoked("after-crash@x") || again.DroppedLines() != 0 {
		return fmt.Errorf("append after recovery lost: reopened at seq %d (want %d), dropped %d", again.LastSeq(), seq+1, again.DroppedLines())
	}
	return nil
}

// jsonLine is rec as the journal writes it.
func jsonLine(t *testing.T, rec ReplRecord) []byte {
	b, err := json.Marshal(journalRecord{ReplRecord: rec})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestJournalCrashPoints checks DESIGN §7's I2 — no mutation whose append
// returned is lost — at every crash point of one journal's life. It logs
// every write, fsync, rename, remove and directory sync the journal makes,
// then opens a fresh journal on what a crash after each prefix of that log
// leaves: with every call kept (the process died), with the prefix's last
// write torn at every byte, and with only the fsynced bytes and the synced
// names (the power went). On every image, the journal must be at or past
// the seq and epoch of every call that returned, hold exactly the
// registry it held at that seq, report a torn line iff there is one, and
// keep an append made after recovery through one more power loss. The
// named cases are the images that lost an acknowledged mutation, or
// reported one wrongly, before the journal was fixed.
func TestJournalCrashPoints(t *testing.T) {
	t.Run("every prefix", func(t *testing.T) {
		log, acks, refs := runCrashScript(t)
		failures, images := 0, 0
		check := func(image map[string][]byte, torn bool, k int, desc string) {
			images++
			var returned []crashAck
			for _, a := range acks {
				if a.pos <= k {
					returned = append(returned, a)
				}
			}
			if err := checkCrashImage(image, torn, returned, refs); err != nil {
				t.Errorf("%s: %v", desc, err)
				if failures++; failures == 5 {
					t.FailNow()
				}
			}
		}
		disk := newCrashDisk(nil)
		for k := 0; k <= len(log); k++ {
			at := "before the first call"
			if k > 0 {
				e := log[k-1]
				at = fmt.Sprintf("after call %d of %d (%v)", k, len(log), e)
				if e.op == "write" {
					ino, named := disk.names[crashPath]
					for b := 1; b < len(e.data); b++ {
						torn := disk.clone()
						torn.do(fsEvent{op: "write", ino: e.ino, data: e.data[:b]})
						check(torn.image(false), named && ino == e.ino, k-1, fmt.Sprintf("call %d of %d (%v) torn at byte %d", k, len(log), e, b))
					}
				}
				disk.do(e)
			}
			check(disk.image(false), false, k, "process crash "+at)
			check(disk.image(true), false, k, "power loss "+at)
		}
		t.Logf("%d calls logged, %d crash images checked", len(log), images)
	})

	when := time.Date(2003, 7, 13, 12, 0, 0, 0, time.UTC)
	first := jsonLine(t, ReplRecord{Op: "revoke", ID: "a@x", Reason: "r", When: when, Seq: 1})
	second := jsonLine(t, ReplRecord{Op: "revoke", ID: "b@x", Reason: "r", When: when, Seq: 2})
	refs := crashRefs{1: {"a@x": {ID: "a@x", Reason: "r", When: when}}}
	acked := []crashAck{{seq: 1, what: "revoke a@x"}}

	// A file the journal created is durable only once its directory entry
	// is: without a directory sync at open, a power loss after an
	// acknowledged revoke left no journal at all.
	t.Run("new journal's directory entry", func(t *testing.T) {
		fs := newCrashFS(nil)
		j, err := openJournal(fs, crashPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Revoke("a@x", "r"); err != nil {
			t.Fatal(err)
		}
		e := entryMap(j.Registry())["a@x"]
		if err := checkCrashImage(fs.disk.image(true), false, acked, crashRefs{1: {"a@x": e}}); err != nil {
			t.Fatal(err)
		}
	})
	// A torn tail followed the next append onto its line: the acknowledged
	// append was dropped with the fragment at the next open.
	t.Run("append after a torn tail", func(t *testing.T) {
		image := map[string][]byte{crashPath: append(slices.Clone(first), second[:len(second)/2]...)}
		if err := checkCrashImage(image, true, acked, refs); err != nil {
			t.Fatal(err)
		}
	})
	// The write torn just before its newline decodes: it was replayed as if
	// acknowledged, reported as no damage, and the next append ran into it.
	t.Run("torn line that decodes", func(t *testing.T) {
		image := map[string][]byte{crashPath: append(slices.Clone(first), second[:len(second)-1]...)}
		if err := checkCrashImage(image, true, acked, refs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJournalEntriesKeepRecordTime: a revocation has one time, its
// record's, on the leader that wrote it, across the leader's reopen, on a
// follower that applied the shipped record, on that follower after its own
// reopen, and on a follower that installed a snapshot — so ListRevoked
// answers the same whichever replica serves it.
func TestJournalEntriesKeepRecordTime(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *Journal {
		j, err := OpenJournal(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		return j
	}
	reopen := func(j *Journal, name string) *Journal {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return open(name)
	}

	leader := open("leader.jsonl")
	for _, id := range []string{"a@x", "b@x"} {
		if err := leader.Revoke(id, "r"); err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := leader.TailSince(0)
	want := map[string]RevocationEntry{}
	for _, r := range recs {
		want[r.ID] = RevocationEntry{ID: r.ID, Reason: r.Reason, When: r.When}
	}
	before := entryMap(leader.Registry())
	if !sameEntries(before, want) {
		t.Errorf("leader holds %v, its records say %v", before, want)
	}
	leader = reopen(leader, "leader.jsonl")
	if got := entryMap(leader.Registry()); !sameEntries(got, before) {
		t.Errorf("leader after reopen holds %v, before it %v", got, before)
	}

	shipped := ReplRecord{Seq: 1, Epoch: 1, Op: "revoke", ID: "f@x", Reason: "shipped", When: time.Date(2003, 7, 13, 12, 0, 0, 0, time.UTC)}
	follower := open("follower.jsonl")
	if _, err := follower.ApplyReplicated([]ReplRecord{shipped}); err != nil {
		t.Fatal(err)
	}
	wantF := map[string]RevocationEntry{"f@x": {ID: "f@x", Reason: "shipped", When: shipped.When}}
	if got := entryMap(follower.Registry()); !sameEntries(got, wantF) {
		t.Errorf("follower holds %v, the shipped record says %v", got, wantF)
	}
	follower = reopen(follower, "follower.jsonl")
	if got := entryMap(follower.Registry()); !sameEntries(got, wantF) {
		t.Errorf("follower after reopen holds %v, want %v", got, wantF)
	}

	installed := open("installed.jsonl")
	epoch, seq, entries := leader.SnapshotState()
	if err := installed.InstallSnapshot(epoch, seq, entries); err != nil {
		t.Fatal(err)
	}
	if got := entryMap(installed.Registry()); !sameEntries(got, want) {
		t.Errorf("snapshot-installed follower holds %v, want %v", got, want)
	}
}

// TestJournalRecoversFromFailedWrite fills the disk under a journal: a
// revocation's write stores half its line and fails, and so does the next
// while the disk stays full. Once there is room, the next revocation and
// reinstatement must succeed — a json.Encoder keeps its first write error,
// so one that outlived the failure refused them until a restart — and a
// journal reopened on what the process left, or on what a power loss
// leaves, must replay every acknowledged record with no line dropped: a
// record appended after the torn half line would share its line and be
// dropped with it.
func TestJournalRecoversFromFailedWrite(t *testing.T) {
	fs := newCrashFS(nil)
	j, err := openJournal(fs, crashPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a@x", "b@x"} {
		if err := j.Revoke(id, "before"); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	fs.full = true
	fs.mu.Unlock()
	for _, id := range []string{"c@x", "d@x"} {
		if err := j.Revoke(id, "disk full"); err == nil {
			t.Fatalf("revoke %s on a full disk succeeded", id)
		}
	}
	fs.mu.Lock()
	fs.full = false
	fs.mu.Unlock()
	if err := j.Revoke("e@x", "after"); err != nil {
		t.Fatalf("revoke once the disk has room: %v", err)
	}
	if err := j.Unrevoke("a@x"); err != nil {
		t.Fatalf("unrevoke once the disk has room: %v", err)
	}
	want := entryMap(j.Registry())
	if len(want) != 2 || want["b@x"].ID == "" || want["e@x"].ID == "" {
		t.Fatalf("registry after the full disk = %v, want b@x and e@x", want)
	}
	seq := j.LastSeq()
	for _, powerLoss := range []bool{false, true} {
		fs.mu.Lock()
		image := fs.disk.image(powerLoss)
		fs.mu.Unlock()
		again, err := openJournal(newCrashFS(image), crashPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := entryMap(again.Registry()); !sameEntries(got, want) || again.LastSeq() != seq || again.DroppedLines() != 0 {
			t.Errorf("reopened (power loss %v): registry %v at seq %d with %d lines dropped, want %v at seq %d with none", powerLoss, got, again.LastSeq(), again.DroppedLines(), want, seq)
		}
	}
}
