package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/keyfile"
	"repro/internal/sem"
)

const testIdent = "vault@example.com"

func writeThresholdDeployment(t *testing.T) string {
	t.Helper()
	d, err := keyfile.NewThresholdDeployment(keyfile.ThresholdDeploymentConfig{
		ParamSet: "toy",
		MsgLen:   32,
		T:        2,
		N:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(testIdent); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startPlayer launches one player daemon and returns its address and a stop
// function.
func startPlayer(t *testing.T, dir string, index int) (string, func()) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-system", filepath.Join(dir, "threshold.json"),
			"-player", filepath.Join(dir, "players", playerFile(index)),
			"-addr", "127.0.0.1:0",
		}, stop, ready, nil, nil, nil)
	}()
	select {
	case addr := <-ready:
		return addr, func() {
			stop <- syscall.SIGTERM
			if err := <-done; err != nil {
				t.Errorf("player %d shutdown: %v", index, err)
			}
		}
	case err := <-done:
		t.Fatalf("player %d exited early: %v", index, err)
		return "", nil
	case <-time.After(5 * time.Second):
		t.Fatalf("player %d never became ready", index)
		return "", nil
	}
}

func playerFile(i int) string {
	return "player-" + string(rune('0'+i)) + ".json"
}

func TestThresholdDaemonEndToEnd(t *testing.T) {
	dir := writeThresholdDeployment(t)
	a1, stop1 := startPlayer(t, dir, 1)
	defer stop1()
	a3, stop3 := startPlayer(t, dir, 3)
	defer stop3()

	system := filepath.Join(dir, "threshold.json")

	// Encrypt.
	var ct bytes.Buffer
	err := run([]string{"-system", system, "-encrypt", "-id", testIdent},
		nil, nil, nil, strings.NewReader("split me"), &ct)
	if err != nil {
		t.Fatal(err)
	}

	// Decrypt with players {1, 3} (player 2 undeployed).
	var plain bytes.Buffer
	err = run([]string{
		"-system", system, "-decrypt", "-id", testIdent,
		"-players", a1 + ",," + a3,
	}, nil, nil, nil, bytes.NewReader(ct.Bytes()), &plain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plain.String(), "split me") {
		t.Fatalf("decrypted %q", plain.String()[:16])
	}

	// An identity no player holds a share for: the error says so, rather
	// than only that shares were missing.
	ct.Reset()
	if err := run([]string{"-system", system, "-encrypt", "-id", "ghost@example.com"},
		nil, nil, nil, strings.NewReader("nobody's"), &ct); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-system", system, "-decrypt", "-id", "ghost@example.com",
		"-players", a1 + ",," + a3,
	}, nil, nil, nil, bytes.NewReader(ct.Bytes()), io.Discard)
	if !errors.Is(err, cluster.ErrUnknownIdentity) || !errors.Is(err, cluster.ErrNotEnoughShares) {
		t.Fatalf("decrypt for an unenrolled identity: %v, want ErrNotEnoughShares and ErrUnknownIdentity", err)
	}
	if !strings.Contains(err.Error(), "unknown identity") {
		t.Fatalf("error text %q does not name the reason", err)
	}

	// An identity revoked at every deployed player: each refuses its share.
	for _, addr := range []string{a1, a3} {
		player, err := sem.Dial(addr, nil, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		err = player.Revoke(testIdent, "device lost")
		_ = player.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	ct.Reset()
	if err := run([]string{"-system", system, "-encrypt", "-id", testIdent},
		nil, nil, nil, strings.NewReader("split me"), &ct); err != nil {
		t.Fatal(err)
	}
	plain.Reset()
	err = run([]string{
		"-system", system, "-decrypt", "-id", testIdent,
		"-players", a1 + ",," + a3,
	}, nil, nil, nil, bytes.NewReader(ct.Bytes()), &plain)
	if !errors.Is(err, core.ErrRevoked) || !errors.Is(err, cluster.ErrNotEnoughShares) || plain.Len() != 0 {
		t.Fatalf("decrypt for a revoked identity: %q, %v; want ErrNotEnoughShares and core.ErrRevoked", plain.String(), err)
	}
}

func TestThresholdDaemonFailsBelowT(t *testing.T) {
	dir := writeThresholdDeployment(t)
	a1, stop1 := startPlayer(t, dir, 1)
	defer stop1()
	system := filepath.Join(dir, "threshold.json")

	var ct bytes.Buffer
	if err := run([]string{"-system", system, "-encrypt", "-id", testIdent},
		nil, nil, nil, strings.NewReader("x"), &ct); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	err := run([]string{
		"-system", system, "-decrypt", "-id", testIdent,
		"-players", a1 + ",,",
	}, nil, nil, nil, bytes.NewReader(ct.Bytes()), &plain)
	if err == nil {
		t.Fatal("decryption with 1 < t players succeeded")
	}
}

func TestThresholdDaemonArgErrors(t *testing.T) {
	dir := writeThresholdDeployment(t)
	system := filepath.Join(dir, "threshold.json")
	if err := run([]string{"-system", "/nonexistent.json"}, nil, nil, nil, nil, nil); err == nil {
		t.Error("missing system accepted")
	}
	if err := run([]string{"-system", system}, nil, nil, nil, nil, nil); err == nil {
		t.Error("serve mode without -player accepted")
	}
	if err := run([]string{"-system", system, "-decrypt"}, nil, nil, nil, strings.NewReader(""), nil); err == nil {
		t.Error("decrypt without -id accepted")
	}
	if err := run([]string{"-system", system, "-encrypt"}, nil, nil, nil, strings.NewReader(""), nil); err == nil {
		t.Error("encrypt without -id accepted")
	}
	var out bytes.Buffer
	if err := run([]string{
		"-system", system, "-decrypt", "-id", testIdent,
		"-players", "a,b,c,d",
	}, nil, nil, nil, strings.NewReader("eA=="), &out); err == nil {
		t.Error("too many player addresses accepted")
	}
	long := strings.Repeat("x", 64)
	if err := run([]string{"-system", system, "-encrypt", "-id", testIdent},
		nil, nil, nil, strings.NewReader(long), &out); err == nil {
		t.Error("oversized plaintext accepted")
	}
}

// TestThresholdDebugEndpoint starts a player with -debug-addr, routes one
// decryption through it and checks the share-serving metrics moved.
func TestThresholdDebugEndpoint(t *testing.T) {
	dir := writeThresholdDeployment(t)
	system := filepath.Join(dir, "threshold.json")

	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	debugReady := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-system", system,
			"-player", filepath.Join(dir, "players", playerFile(1)),
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
		}, stop, ready, debugReady, nil, nil)
	}()
	var a1, dbgAddr string
	select {
	case dbgAddr = <-debugReady:
	case err := <-done:
		t.Fatalf("player exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("debug endpoint never became ready")
	}
	a1 = <-ready
	a3, stop3 := startPlayer(t, dir, 3)
	defer stop3()

	var ct bytes.Buffer
	if err := run([]string{"-system", system, "-encrypt", "-id", testIdent},
		nil, nil, nil, strings.NewReader("x"), &ct); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := run([]string{
		"-system", system, "-decrypt", "-id", testIdent,
		"-players", a1 + ",," + a3,
	}, nil, nil, nil, bytes.NewReader(ct.Bytes()), &plain); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + dbgAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`sem_requests_total{op="threshold_share"} 1`,
		`sem_service_seconds_count{op="threshold_share"} 1`,
		`curve_hash_to_point_total `,
		`fp_kernel{impl="` + fp.Kernel() + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("player metrics missing %q:\n%s", want, out)
		}
	}

	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("shutdown error: %v", err)
	}
}
