// Command semd is the online security mediator daemon: it loads the SEM
// key-half store written by pkgen and serves decryption tokens,
// half-signatures and revocation administration over TCP until interrupted.
//
// Usage:
//
//	semd -addr :7300 -system deploy/system.json -store deploy/sem-store.json
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/keyfile"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/sem"
)

// replDialTimeout bounds each connection attempt the leader makes to a
// follower; the retry loop in internal/repl handles the rest.
const replDialTimeout = 5 * time.Second

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigCh, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "semd:", err)
		os.Exit(1)
	}
}

// run serves until an element arrives on stop. When ready is non-nil it
// receives the bound listen address once the daemon is serving (tests use
// this to connect to a ":0" listener); debugReady likewise receives the
// bound -debug-addr address, or is closed when the debug endpoint is off.
func run(args []string, stop <-chan os.Signal, ready, debugReady chan<- string) error {
	fs := flag.NewFlagSet("semd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7300", "listen address")
		systemFn  = fs.String("system", "deploy/system.json", "system parameters file")
		storeFn   = fs.String("store", "deploy/sem-store.json", "SEM key-half store")
		preRevoke = fs.String("revoked", "", "comma-separated identities to revoke at startup")
		journalFn = fs.String("journal", "", "revocation journal file: persists revocations across restarts")
		debugAddr = fs.String("debug-addr", "", "HTTP debug listener (Prometheus /metrics, /metrics.json, /debug/pprof); empty disables")
		maxBatch  = fs.Int("max-batch", 0, "protocol-v2 items per frame announced to clients (0 = default)")
		maxFrame  = fs.Int("max-frame", 0, "per-connection frame size cap in bytes, both protocol versions (0 = default)")
		workers   = fs.Int("workers", 0, "request-execution worker pool size (0 = GOMAXPROCS)")
		shardID   = fs.String("shard", "", "shard label for logs and metrics when this daemon is one of a fleet")
		allowReg  = fs.Bool("allow-register", false, "accept register_ibe/register_gdh ops (enrollment over the wire; same trust model as unauthenticated revoke)")
		replLead  = fs.Bool("repl-leader", false, "act as the fleet's revocation leader: sequence journal appends and stream them to -repl-peers (requires -journal)")
		replPeers = fs.String("repl-peers", "", "comma-separated follower addresses the leader replicates the revocation journal to")
		replEpoch = fs.Uint64("repl-epoch", 1, "this leader's epoch; bump when promoting a new leader so the fleet fences the old one")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject nonsense tunables outright instead of limping along on an
	// accidental default: an explicitly-set size must be ≥ 1 (leave a flag
	// unset for the built-in default).
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers", "max-batch", "max-frame":
			if v, err := strconv.Atoi(f.Value.String()); err != nil || v < 1 {
				flagErr = fmt.Errorf("-%s must be >= 1, got %s", f.Name, f.Value)
			}
		}
	})
	if flagErr != nil {
		return flagErr
	}
	if (*replLead || *replPeers != "") && *journalFn == "" {
		return fmt.Errorf("replication requires a durable journal: set -journal")
	}
	if *replPeers != "" && !*replLead {
		return fmt.Errorf("-repl-peers only makes sense on the leader: set -repl-leader")
	}
	if *replEpoch == 0 {
		return fmt.Errorf("-repl-epoch must be >= 1 (epoch 0 is the pre-replication journal state)")
	}

	var sys keyfile.System
	if err := keyfile.Load(*systemFn, &sys); err != nil {
		return err
	}
	var store keyfile.SEMStore
	if err := keyfile.Load(*storeFn, &store); err != nil {
		return err
	}
	var (
		reg     *core.Registry
		journal *core.Journal
		err     error
	)
	var metrics *obs.Registry
	if *debugAddr != "" {
		metrics = obs.NewRegistry()
	}
	// Which field kernel this process runs on (the server exports it as
	// fp_kernel{impl}), so that two hosts' service times can be compared
	// knowingly.
	log.Printf("semd: fp kernel %s", fp.Kernel())
	if *journalFn != "" {
		if journal, err = core.OpenJournal(*journalFn); err != nil {
			return err
		}
		defer func() { _ = journal.Close() }()
		journal.Instrument(metrics)
		log.Printf("semd: journal replayed %d records (last seq %d, epoch %d)",
			journal.Replayed(), journal.LastSeq(), journal.Epoch())
		if n := journal.DroppedLines(); n > 0 {
			log.Printf("semd: WARNING: journal replay dropped %d line(s) after corruption; "+
				"1 means a torn final write, more means the journal body is damaged", n)
		}
		if n := journal.UnknownOps(); n > 0 {
			log.Printf("semd: WARNING: journal replay skipped %d record(s) with unknown ops; "+
				"was this journal written by a newer semd?", n)
		}
		reg = journal.Registry()
	} else {
		reg = core.NewRegistry()
	}
	for _, id := range strings.Split(*preRevoke, ",") {
		if id = strings.TrimSpace(id); id != "" {
			if journal != nil {
				if err := journal.Revoke(id, "revoked at startup"); err != nil {
					return err
				}
			} else {
				reg.Revoke(id, "revoked at startup")
			}
		}
	}
	ibe, gdh, rsa, err := store.BuildSEMs(&sys, reg)
	if err != nil {
		return err
	}
	pp, err := sys.Params()
	if err != nil {
		return err
	}
	logf := log.Printf
	if *shardID != "" {
		prefix := fmt.Sprintf("[shard %s] ", *shardID)
		logf = func(format string, v ...any) { log.Printf(prefix+format, v...) }
		if metrics != nil {
			metrics.Gauge("semd_shard_info", "constant 1, labeled with this daemon's shard id",
				obs.Label{Key: "shard", Value: *shardID}).Set(1)
		}
	}
	// Replication roles. Every journal-backed daemon runs a follower — it
	// costs nothing until a leader speaks to it, and it is what lets this
	// shard be caught up after a restart. The leader role is opt-in and
	// additionally streams the journal to its peers.
	var (
		follower *repl.Follower
		leader   *repl.Leader
	)
	if journal != nil {
		follower = repl.NewFollower(journal)
		follower.Instrument(metrics)
	}
	if *replLead {
		var peers []string
		for _, p := range strings.Split(*replPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		leader, err = repl.NewLeader(repl.LeaderConfig{
			Journal: journal,
			Epoch:   *replEpoch,
			Peers:   peers,
			Dial:    sem.ReplDialer(replDialTimeout),
			Logf:    logf,
			Metrics: metrics,
		})
		if err != nil {
			return fmt.Errorf("semd replication leader: %w", err)
		}
		defer func() { _ = leader.Close() }()
		logf("semd: replication leader, epoch %d, %d peer(s): %s", *replEpoch, len(peers), *replPeers)
	} else if follower != nil {
		logf("semd: replication follower at epoch %d, last seq %d", journal.Epoch(), journal.LastSeq())
	}

	srv, err := sem.NewServer(sem.Config{
		Registry:      reg,
		IBE:           ibe,
		GDH:           gdh,
		RSA:           rsa,
		Journal:       journal,
		Pairing:       pp,
		Repl:          follower,
		Leader:        leader,
		Logf:          logf,
		Metrics:       metrics,
		MaxBatch:      *maxBatch,
		MaxFrame:      *maxFrame,
		Workers:       *workers,
		AllowRegister: *allowReg,
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			return fmt.Errorf("semd debug listen: %w", err)
		}
		defer func() { _ = dbg.Close() }()
		log.Printf("semd: debug endpoint (metrics + pprof) on http://%s", dbg.Addr)
		if debugReady != nil {
			debugReady <- dbg.Addr
		}
	} else if debugReady != nil {
		close(debugReady)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("semd listen: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Printf("semd: serving %d IBE / %d GDH / %d RSA identities on %s",
		len(store.IBE), len(store.GDH), len(store.RSA), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-done:
		return err
	case s := <-stop:
		log.Printf("semd: %v — shutting down", s)
		if err := srv.Close(); err != nil {
			return err
		}
		return <-done
	}
}
