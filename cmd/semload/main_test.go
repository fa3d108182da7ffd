package main

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyfile"
	"repro/internal/pairing"
	"repro/internal/sem"
)

// startFleet boots n in-process SEM servers sharing toy parameters (each
// with its own registry, like independent semd shards) and writes the
// matching system.json. It returns the comma-joined shard list.
func startFleet(t *testing.T, n int) (shards, systemFn string) {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, 32)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < n; i++ {
		reg := core.NewRegistry()
		srv, err := sem.NewServer(sem.Config{
			Registry:      reg,
			IBE:           core.NewIBESEM(pkg.Public(), reg),
			GDH:           core.NewGDHSEM(pp, reg),
			Pairing:       pp,
			Workers:       1,
			AllowRegister: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	systemFn = filepath.Join(t.TempDir(), "system.json")
	if err := keyfile.Save(systemFn, toySystem(t), false); err != nil {
		t.Fatal(err)
	}
	return strings.Join(addrs, ","), systemFn
}

// TestSemloadMixedTraffic runs the mix against standalone shards, a fleet
// without a replication leader, so each identity is served by one replica
// and its revokes go to that shard alone.
func TestSemloadMixedTraffic(t *testing.T) {
	shards, systemFn := startFleet(t, 3)
	var out bytes.Buffer
	err := run([]string{
		"-shards", shards, "-system", systemFn, "-replicas", "1",
		"-n", "120", "-c", "8", "-duration", "400ms",
		"-mix", "token=16,sign=3,revoke=1",
		"-register-batch", "50",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("semload: %v\n%s", err, out.String())
	}

	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, out.String())
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("transport errors against a healthy fleet: %d", rep.TransportErrors)
	}
	for _, k := range []string{"token", "sign", "revoke"} {
		o, ok := rep.Ops[k]
		if !ok || o.Count == 0 {
			t.Fatalf("no %s ops recorded: %+v", k, rep.Ops)
		}
		if o.RemoteErrors != 0 {
			t.Errorf("%s: %d remote errors (revocable tail leaked into live traffic?)", k, o.RemoteErrors)
		}
		if o.P50Ms <= 0 || o.P99Ms < o.P50Ms {
			t.Errorf("%s: implausible quantiles %+v", k, o)
		}
	}
	if rep.TotalRPS <= 0 {
		t.Errorf("no throughput measured: %+v", rep)
	}
	// Client-side ring and pool series must be scrapeable from the report.
	for _, want := range []string{"shard_ring_lookups_total", "sempool_frames_total", "shardclient_shard_batches_total"} {
		if !strings.Contains(string(rep.Metrics), want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func TestSemloadOpsBudget(t *testing.T) {
	shards, systemFn := startFleet(t, 1)
	var out bytes.Buffer
	start := time.Now()
	err := run([]string{
		"-shards", shards, "-system", systemFn,
		"-n", "16", "-c", "4", "-duration", "30s", "-ops", "64",
		"-mix", "token=1", "-register-batch", "16", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("semload: %v\n%s", err, out.String())
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("-ops budget did not cut the 30s window short (took %v)", elapsed)
	}
	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if n := rep.Ops["token"].Count; n == 0 || n > 64 {
		t.Fatalf("op budget not honored: %d ops", n)
	}
}

func TestSemloadFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-c", "0"},
		{"-pool", "-1"},
		{"-replicas", "0"},
		{"-register-batch", "0"},
		{"-mix", "bogus=3"},
		{"-mix", "token=0,sign=0"},
		{"-shards", " , "},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// toySystem is the public artifact semload reads: the toy set by name and
// digest. The fleet's P_pub is not needed to drive it.
func toySystem(t *testing.T) *keyfile.System {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	return &keyfile.System{ParamSet: "toy", ParamDigest: keyfile.ParamDigest(pp), MsgLen: 32}
}

func TestSemloadDeadFleet(t *testing.T) {
	// Port 0: a dial is refused at once, and no listener can ever hold it.
	systemFn := filepath.Join(t.TempDir(), "system.json")
	if err := keyfile.Save(systemFn, toySystem(t), false); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-shards", "127.0.0.1:0", "-system", systemFn, "-n", "4", "-c", "1", "-duration", "100ms"}, &out)
	if err == nil {
		t.Fatal("dead fleet accepted")
	}
	// It must fail for that reason: a refused dial, not a remote answer or
	// a bad flag.
	var dial *net.OpError
	if !errors.As(err, &dial) || dial.Op != "dial" || errors.Is(err, sem.ErrRemote) {
		t.Fatalf("dead fleet failed with %v, want a dial failure", err)
	}
}
