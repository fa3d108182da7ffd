package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyfile"
	"repro/internal/repl"
	"repro/internal/sem"
	"repro/internal/shard"
)

// cliWorld writes a deployment to disk and starts an in-process SEM daemon
// — the full environment medcli expects.
type cliWorld struct {
	dir     string
	semAddr string
}

func newCLIWorld(t *testing.T) *cliWorld {
	t.Helper()
	d, err := keyfile.NewDeployment(keyfile.DeploymentConfig{ParamSet: "toy", MsgLen: 48, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice@example.com", "bob@example.com"} {
		if err := d.Enroll(id); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	ibe, gdh, rsa, err := d.Store().BuildSEMs(d.System(), reg)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := d.System().Params()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sem.NewServer(sem.Config{Registry: reg, IBE: ibe, GDH: gdh, RSA: rsa, Pairing: pp})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return &cliWorld{dir: dir, semAddr: ln.Addr().String()}
}

func (w *cliWorld) exec(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	base := []string{
		"-system", filepath.Join(w.dir, "system.json"),
		"-sem", w.semAddr,
	}
	err := run(append(base, args...), strings.NewReader(stdin), &out)
	return out.String(), err
}

func (w *cliWorld) userFlag(id string) []string {
	return []string{"-user", filepath.Join(w.dir, "users", keyfile.UserFileName(id))}
}

func TestCLIEncryptDecrypt(t *testing.T) {
	w := newCLIWorld(t)
	ct, err := w.exec(t, "top secret", "encrypt", "-to", "bob@example.com")
	if err != nil {
		t.Fatal(err)
	}
	args := append(w.userFlag("bob@example.com"), "decrypt")
	plain, err := w.exec(t, ct, args...)
	if err != nil {
		t.Fatal(err)
	}
	if plain != "top secret" {
		t.Fatalf("decrypted %q", plain)
	}
}

func TestCLISignVerify(t *testing.T) {
	w := newCLIWorld(t)
	doc := "the signed document"
	args := append(w.userFlag("alice@example.com"), "sign")
	sig, err := w.exec(t, doc, args...)
	if err != nil {
		t.Fatal(err)
	}
	sigFile := filepath.Join(w.dir, "sig.b64")
	if err := os.WriteFile(sigFile, []byte(sig), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := w.exec(t, doc, "verify", "-id", "alice@example.com", "-sig", sigFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "signature OK") {
		t.Fatalf("verify output: %q", out)
	}
	// Wrong document fails.
	if _, err := w.exec(t, "other doc", "verify", "-id", "alice@example.com", "-sig", sigFile); err == nil {
		t.Fatal("verify accepted a different document")
	}
}

func TestCLIRevocationFlow(t *testing.T) {
	w := newCLIWorld(t)
	ct, err := w.exec(t, "msg", "encrypt", "-to", "bob@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.exec(t, "", "revoke", "-id", "bob@example.com", "-reason", "test"); err != nil {
		t.Fatal(err)
	}
	out, err := w.exec(t, "", "status", "-id", "bob@example.com")
	if err != nil || !strings.Contains(out, "REVOKED") {
		t.Fatalf("status: %q %v", out, err)
	}
	args := append(w.userFlag("bob@example.com"), "decrypt")
	if _, err := w.exec(t, ct, args...); err == nil {
		t.Fatal("revoked identity decrypted")
	}
	if _, err := w.exec(t, "", "unrevoke", "-id", "bob@example.com"); err != nil {
		t.Fatal(err)
	}
	plain, err := w.exec(t, ct, args...)
	if err != nil || plain != "msg" {
		t.Fatalf("post-unrevoke decrypt: %q %v", plain, err)
	}
}

func TestCLIErrors(t *testing.T) {
	w := newCLIWorld(t)
	if _, err := w.exec(t, "", "bogus"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := w.exec(t, "x"); err == nil {
		t.Error("missing command accepted")
	}
	if _, err := w.exec(t, "x", "encrypt"); err == nil {
		t.Error("encrypt without -to accepted")
	}
	if _, err := w.exec(t, "x", "decrypt"); err == nil {
		t.Error("decrypt without -user accepted")
	}
	if _, err := w.exec(t, "x", "sign"); err == nil {
		t.Error("sign without -user accepted")
	}
	if _, err := w.exec(t, "", "revoke"); err == nil {
		t.Error("revoke without -id accepted")
	}
	// Message too long for the 48-byte block (47 usable).
	long := strings.Repeat("x", 48)
	if _, err := w.exec(t, long, "encrypt", "-to", "bob@example.com"); err == nil {
		t.Error("oversized plaintext accepted")
	}
}

func TestPadUnpad(t *testing.T) {
	block, err := pad([]byte("abc"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(block) != 16 || block[0] != 3 {
		t.Fatalf("block = %v", block)
	}
	msg, err := unpad(block)
	if err != nil || string(msg) != "abc" {
		t.Fatalf("unpad: %q %v", msg, err)
	}
	if _, err := pad(make([]byte, 16), 16); err == nil {
		t.Error("overfull pad accepted")
	}
	if _, err := unpad([]byte{200, 1, 2}); err == nil {
		t.Error("corrupt length byte accepted")
	}
	if _, err := unpad(nil); err == nil {
		t.Error("empty block accepted")
	}
}

func TestCLIList(t *testing.T) {
	w := newCLIWorld(t)
	out, err := w.exec(t, "", "list")
	if err != nil || !strings.Contains(out, "no revoked identities") {
		t.Fatalf("empty list: %q %v", out, err)
	}
	if _, err := w.exec(t, "", "revoke", "-id", "bob@example.com", "-reason", "offboarded"); err != nil {
		t.Fatal(err)
	}
	out, err = w.exec(t, "", "list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bob@example.com") || !strings.Contains(out, "offboarded") {
		t.Fatalf("list output: %q", out)
	}
}

// newShardedCLIWorld is newCLIWorld with n independent SEM shards, each
// serving the full deployment store (as after a fleet-wide enrollment
// broadcast).
func newShardedCLIWorld(t *testing.T, n int) *cliWorld {
	t.Helper()
	d, err := keyfile.NewDeployment(keyfile.DeploymentConfig{ParamSet: "toy", MsgLen: 48, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice@example.com", "bob@example.com", "carol@example.com"} {
		if err := d.Enroll(id); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	pp, err := d.System().Params()
	if err != nil {
		t.Fatal(err)
	}
	w := &cliWorld{dir: dir}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	// Journaled shards, the ring-designated one leading replication to the
	// rest, wired as semd wires -repl-leader: the fleet shape whose
	// revocations reach every replica.
	ring, err := shard.New(addrs, shard.DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	for _, a := range addrs {
		if a != ring.Leader() {
			peers = append(peers, a)
		}
	}
	for i, ln := range lns {
		j, err := core.OpenJournal(filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		reg := j.Registry()
		ibe, gdh, rsa, err := d.Store().BuildSEMs(d.System(), reg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sem.Config{Registry: reg, IBE: ibe, GDH: gdh, RSA: rsa, Pairing: pp, Journal: j, Repl: repl.NewFollower(j)}
		if addrs[i] == ring.Leader() {
			leader, err := repl.NewLeader(repl.LeaderConfig{Journal: j, Epoch: 1, Peers: peers, Dial: sem.ReplDialer(5 * time.Second)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = leader.Close() })
			cfg.Leader = leader
		}
		srv, err := sem.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
	}
	w.semAddr = strings.Join(addrs, ",")
	return w
}

func (w *cliWorld) execSharded(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	base := []string{
		"-system", filepath.Join(w.dir, "system.json"),
		"-shards", w.semAddr,
	}
	err := run(append(base, args...), strings.NewReader(stdin), &out)
	return out.String(), err
}

// TestCLISharded drives the user-facing flows through -shards routing:
// mediated decryption routes to the owning shard, revocation goes through
// the replication leader, which acknowledges it once every shard holds it,
// and list unions the shards' journals.
func TestCLISharded(t *testing.T) {
	w := newShardedCLIWorld(t, 3)

	ct, err := w.execSharded(t, "fleet secret", "encrypt", "-to", "bob@example.com")
	if err != nil {
		t.Fatal(err)
	}
	args := append(w.userFlag("bob@example.com"), "decrypt")
	plain, err := w.execSharded(t, ct, args...)
	if err != nil {
		t.Fatal(err)
	}
	if plain != "fleet secret" {
		t.Fatalf("decrypted %q", plain)
	}

	signArgs := append(w.userFlag("alice@example.com"), "sign")
	sig, err := w.execSharded(t, "doc", signArgs...)
	if err != nil {
		t.Fatal(err)
	}
	sigFile := filepath.Join(w.dir, "sig.b64")
	if err := os.WriteFile(sigFile, []byte(sig), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := w.execSharded(t, "doc", "verify", "-id", "alice@example.com", "-sig", sigFile); err != nil || !strings.Contains(out, "signature OK") {
		t.Fatalf("verify: %q %v", out, err)
	}

	// Revocation must bite on EVERY shard: decrypt routes by ring, so if
	// the owning shard lacked the acknowledged revoke the next decrypt
	// would succeed.
	if _, err := w.execSharded(t, "", "revoke", "-id", "bob@example.com", "-reason", "fleet test"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.execSharded(t, ct, args...); err == nil {
		t.Fatal("revoked identity decrypted through the fleet")
	}
	out, err := w.execSharded(t, "", "status", "-id", "bob@example.com")
	if err != nil || !strings.Contains(out, "REVOKED") {
		t.Fatalf("status: %q %v", out, err)
	}
	out, err = w.execSharded(t, "", "list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bob@example.com") || strings.Count(out, "bob@example.com") != 1 {
		t.Fatalf("list union wrong: %q", out)
	}
	if _, err := w.execSharded(t, "", "unrevoke", "-id", "bob@example.com"); err != nil {
		t.Fatal(err)
	}
	plain, err = w.execSharded(t, ct, args...)
	if err != nil || plain != "fleet secret" {
		t.Fatalf("post-unrevoke decrypt: %q %v", plain, err)
	}
}

// TestCLIShardedBatchDecrypt routes a batch across the ring: every line
// must come back in input order even though the ids map to one shard and
// the frames split per shard under the hood.
func TestCLIShardedBatchDecrypt(t *testing.T) {
	w := newShardedCLIWorld(t, 3)
	var lines []string
	msgs := []string{"first", "second", "third", "fourth"}
	for _, m := range msgs {
		ct, err := w.execSharded(t, m, "encrypt", "-to", "carol@example.com")
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.TrimSpace(ct))
	}
	args := append(w.userFlag("carol@example.com"), "decrypt", "-batch")
	out, err := w.execSharded(t, strings.Join(lines, "\n")+"\n", args...)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(strings.TrimSpace(out))
	if len(got) != len(msgs) {
		t.Fatalf("got %d lines for %d inputs:\n%s", len(got), len(msgs), out)
	}
	for i, m := range msgs {
		raw, err := base64.StdEncoding.DecodeString(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != m {
			t.Errorf("line %d: got %q want %q", i, raw, m)
		}
	}
}
