// Command thresholdd runs the threshold-IBE cluster: in serve mode it is
// one player's decryption server; in -decrypt mode it is the recombiner,
// asking t players for their shares of a ciphertext (the rest only if one of
// those fails) and combining t verified shares.
//
// Generate a deployment with pkgen, then:
//
//	thresholdd -system tdeploy/threshold.json -player tdeploy/players/player-1.json -addr :7401 &
//	thresholdd -system tdeploy/threshold.json -player tdeploy/players/player-2.json -addr :7402 &
//	thresholdd -system tdeploy/threshold.json -player tdeploy/players/player-3.json -addr :7403 &
//	thresholdd -system tdeploy/threshold.json -decrypt -id vault@example.com \
//	           -players :7401,:7402,:7403,, <ct.b64 >plain.bin
//
// (-players is positional: entry i is player i's address; empty entries
// mark undeployed players.)
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/keyfile"
	"repro/internal/obs"
)

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigCh, nil, nil, os.Stdin, os.Stdout); err != nil { //cryptolint:nodeadline (stdio is local; player and recombiner connections set per-frame deadlines internally)
		fmt.Fprintln(os.Stderr, "thresholdd:", err)
		os.Exit(1)
	}
}

// run executes one thresholdd invocation. ready (serve mode) and
// debugReady (-debug-addr) receive the respective bound addresses when
// non-nil; debugReady is closed when the debug endpoint is disabled.
func run(args []string, stop <-chan os.Signal, ready, debugReady chan<- string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("thresholdd", flag.ContinueOnError)
	var (
		systemFn  = fs.String("system", "tdeploy/threshold.json", "threshold system file")
		playerFn  = fs.String("player", "", "player share file (serve mode)")
		addr      = fs.String("addr", "127.0.0.1:0", "listen address (serve mode)")
		decrypt   = fs.Bool("decrypt", false, "recombiner mode: decrypt stdin (base64 BasicIdent ciphertext)")
		encrypt   = fs.Bool("encrypt", false, "sender mode: encrypt stdin to -id, emit base64 ciphertext")
		id        = fs.String("id", "", "identity (encrypt/decrypt modes)")
		players   = fs.String("players", "", "comma-separated player addresses, entry i = player i (recombiner mode)")
		debugAddr = fs.String("debug-addr", "", "HTTP debug listener (Prometheus /metrics, /metrics.json, /debug/pprof); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var metrics *obs.Registry
	if *debugAddr != "" {
		metrics = obs.NewRegistry()
		dbg, err := obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			return fmt.Errorf("thresholdd debug listen: %w", err)
		}
		defer func() { _ = dbg.Close() }()
		log.Printf("thresholdd: debug endpoint (metrics + pprof) on http://%s", dbg.Addr)
		if debugReady != nil {
			debugReady <- dbg.Addr
		}
	} else if debugReady != nil {
		close(debugReady)
	}
	var sys keyfile.ThresholdSystem
	if err := keyfile.Load(*systemFn, &sys); err != nil {
		return err
	}
	params, err := sys.Params()
	if err != nil {
		return err
	}
	if *encrypt {
		return encryptTo(params, *id, stdin, stdout)
	}
	if *decrypt {
		return recombine(params, *id, *players, metrics, stdin, stdout)
	}
	if *playerFn == "" {
		return fmt.Errorf("serve mode needs -player (or pass -decrypt)")
	}
	var pf keyfile.PlayerFile
	if err := keyfile.Load(*playerFn, &pf); err != nil {
		return err
	}
	srv, err := cluster.NewPlayerServer(params, pf.Index)
	if err != nil {
		return err
	}
	srv.Instrument(metrics)
	log.Printf("thresholdd: fp kernel %s", fp.Kernel())
	shares, err := pf.KeyShares(params)
	if err != nil {
		return err
	}
	for _, ks := range shares {
		if err := srv.Install(ks); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("thresholdd listen: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Printf("thresholdd: player %d serving %d identities on %s", pf.Index, len(shares), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-done:
		return err
	case s := <-stop:
		log.Printf("thresholdd: %v — shutting down", s)
		if err := srv.Close(); err != nil {
			return err
		}
		return <-done
	}
}

func encryptTo(params *core.ThresholdParams, id string, stdin io.Reader, stdout io.Writer) error {
	if id == "" {
		return fmt.Errorf("sender mode needs -id")
	}
	msg, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	if len(msg) > params.Public.MsgLen {
		return fmt.Errorf("plaintext is %d bytes; the block is %d", len(msg), params.Public.MsgLen)
	}
	block := make([]byte, params.Public.MsgLen)
	copy(block, msg)
	ct, err := params.Public.EncryptBasic(nil, id, block)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, base64.StdEncoding.EncodeToString(ct.Marshal()))
	return err
}

func recombine(params *core.ThresholdParams, id, players string, metrics *obs.Registry, stdin io.Reader, stdout io.Writer) error {
	if id == "" {
		return fmt.Errorf("recombiner mode needs -id")
	}
	addrs := strings.Split(players, ",")
	for len(addrs) < params.N {
		addrs = append(addrs, "")
	}
	if len(addrs) > params.N {
		return fmt.Errorf("%d player addresses for n=%d", len(addrs), params.N)
	}
	rec, err := cluster.NewRecombiner(params, addrs, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = rec.Close() }()
	rec.Instrument(metrics)
	raw, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	trimmed := strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' || r == ' ' || r == '\t' {
			return -1
		}
		return r
	}, string(raw))
	ctBytes, err := base64.StdEncoding.DecodeString(trimmed)
	if err != nil {
		return fmt.Errorf("decode ciphertext: %w", err)
	}
	ct, err := params.Public.UnmarshalBasicCiphertext(ctBytes)
	if err != nil {
		return err
	}
	msg, rejected, err := rec.Decrypt(id, ct)
	if len(rejected) > 0 {
		// Only players that were asked can appear here.
		log.Printf("thresholdd: rejected shares from players %v", rejected)
	}
	if err != nil {
		return err
	}
	_, err = stdout.Write(msg)
	return err
}
