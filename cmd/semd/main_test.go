package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fp"
	"repro/internal/keyfile"
	"repro/internal/pairing"
	"repro/internal/sem"
)

func writeDeployment(t *testing.T) string {
	t.Helper()
	d, err := keyfile.NewDeployment(keyfile.DeploymentConfig{ParamSet: "toy", MsgLen: 32, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll("alice@example.com"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSemdServeAndShutdown(t *testing.T) {
	dir := writeDeployment(t)
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-system", filepath.Join(dir, "system.json"),
			"-store", filepath.Join(dir, "sem-store.json"),
			"-revoked", "mallory@example.com",
		}, stop, ready, nil)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	client, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	// The -revoked flag took effect.
	revoked, err := client.Status("mallory@example.com")
	if err != nil || !revoked {
		t.Fatalf("startup revocation missing: %v %v", revoked, err)
	}
	_ = client.Close()

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestSemdMissingFiles(t *testing.T) {
	stop := make(chan os.Signal)
	if err := run([]string{"-system", "/nonexistent.json"}, stop, nil, nil); err == nil {
		t.Fatal("missing system file accepted")
	}
	dir := writeDeployment(t)
	if err := run([]string{
		"-system", filepath.Join(dir, "system.json"),
		"-store", "/nonexistent.json",
	}, stop, nil, nil); err == nil {
		t.Fatal("missing store file accepted")
	}
}

func TestSemdBadAddress(t *testing.T) {
	dir := writeDeployment(t)
	stop := make(chan os.Signal)
	if err := run([]string{
		"-addr", "256.256.256.256:99999",
		"-system", filepath.Join(dir, "system.json"),
		"-store", filepath.Join(dir, "sem-store.json"),
	}, stop, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

func TestSemdJournalSurvivesRestart(t *testing.T) {
	dir := writeDeployment(t)
	journal := filepath.Join(dir, "revocations.jsonl")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-system", filepath.Join(dir, "system.json"),
		"-store", filepath.Join(dir, "sem-store.json"),
		"-journal", journal,
	}
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}

	// First life: revoke alice over the wire, then shut down.
	stop1 := make(chan os.Signal, 1)
	ready1 := make(chan string, 1)
	done1 := make(chan error, 1)
	go func() { done1 <- run(args, stop1, ready1, nil) }()
	addr := <-ready1
	client, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke("alice@example.com", "incident"); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	stop1 <- syscall.SIGTERM
	if err := <-done1; err != nil {
		t.Fatal(err)
	}

	// Second life: the revocation must have survived.
	stop2 := make(chan os.Signal, 1)
	ready2 := make(chan string, 1)
	done2 := make(chan error, 1)
	go func() { done2 <- run(args, stop2, ready2, nil) }()
	addr = <-ready2
	client2, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := client2.Status("alice@example.com")
	if err != nil || !revoked {
		t.Fatalf("revocation lost across restart: %v %v", revoked, err)
	}
	// Unrevoke also persists.
	if err := client2.Unrevoke("alice@example.com"); err != nil {
		t.Fatal(err)
	}
	_ = client2.Close()
	stop2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatal(err)
	}

	// Third life: unrevocation visible.
	stop3 := make(chan os.Signal, 1)
	ready3 := make(chan string, 1)
	done3 := make(chan error, 1)
	go func() { done3 <- run(args, stop3, ready3, nil) }()
	addr = <-ready3
	client3, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	revoked, err = client3.Status("alice@example.com")
	if err != nil || revoked {
		t.Fatalf("unrevocation lost across restart: %v %v", revoked, err)
	}
	_ = client3.Close()
	stop3 <- syscall.SIGTERM
	if err := <-done3; err != nil {
		t.Fatal(err)
	}
}

// TestSemdMetricsEndpoint boots the daemon with -debug-addr and scrapes
// the metrics endpoint end-to-end: op counters must move when requests
// are served, and the pprof index must be mounted on the same listener.
func TestSemdMetricsEndpoint(t *testing.T) {
	dir := writeDeployment(t)
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	debugReady := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-system", filepath.Join(dir, "system.json"),
			"-store", filepath.Join(dir, "sem-store.json"),
			"-journal", filepath.Join(dir, "revocations.jsonl"),
		}, stop, ready, debugReady)
	}()
	var addr, dbgAddr string
	select {
	case dbgAddr = <-debugReady:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("debug endpoint never became ready")
	}
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	client, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Revoke("mallory@example.com", "e2e"); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()

	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + dbgAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := scrape("/metrics")
	for _, want := range []string{
		`sem_requests_total{op="ping"} 3`,
		`sem_requests_total{op="revoke"} 1`,
		`sem_service_seconds_count{op="ping"} 3`,
		`sem_queue_depth 0`,
		`lru_hits_total{cache="sem_pairers"}`,
		`lru_rejected_total{cache="sem_pairers"} 0`,
		`journal_append_seconds_count 1`,
		`fp_kernel{impl="` + fp.Kernel() + `"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics endpoint missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("scrape:\n%s", metrics)
	}
	if js := scrape("/metrics.json"); !strings.Contains(js, `"sem_requests_total{op=\"ping\"}": 3`) {
		t.Errorf("JSON endpoint missing ping counter:\n%s", js)
	}
	if idx := scrape("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index not mounted on debug listener")
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestSemdFlagValidation checks the startup tunable validation: explicitly
// setting -workers/-max-batch/-max-frame below 1 must be rejected before
// any file is touched, while valid values (and the 0-means-default of an
// unset flag) boot normally.
func TestSemdFlagValidation(t *testing.T) {
	stop := make(chan os.Signal)
	for _, bad := range [][]string{
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-max-batch", "0"},
		{"-max-batch", "-1"},
		{"-max-frame", "0"},
		{"-max-frame", "-64"},
	} {
		err := run(bad, stop, nil, nil)
		if err == nil {
			t.Fatalf("args %v accepted", bad)
		}
		if !strings.Contains(err.Error(), "must be >= 1") {
			t.Fatalf("args %v: error %q does not name the constraint", bad, err)
		}
	}

	// Valid explicit values serve fine (and -shard/-allow-register parse).
	dir := writeDeployment(t)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	stopOK := make(chan os.Signal, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-system", filepath.Join(dir, "system.json"),
			"-store", filepath.Join(dir, "sem-store.json"),
			"-workers", "2",
			"-max-batch", "16",
			"-max-frame", "65536",
			"-shard", "s0",
			"-allow-register",
		}, stopOK, ready, nil)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	client, err := sem.Dial(addr, pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	stopOK <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
