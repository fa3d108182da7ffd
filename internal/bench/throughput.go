package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/sem"
)

// ThroughputConfig parameterizes the F3 experiment.
type ThroughputConfig struct {
	Clients  []int         // concurrency sweep
	Duration time.Duration // measurement window per cell
}

// DefaultThroughputConfig is the F3 sweep used by EXPERIMENTS.md.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{Clients: []int{1, 4, 16}, Duration: 500 * time.Millisecond}
}

// Throughput runs F3: sustained SEM-daemon token throughput per scheme at
// increasing client concurrency, over the real TCP protocol.
//
// Expected shape: per-op cost orders the schemes — the mRSA half-op (one
// modexp) and the GDH half-sign (one scalar multiplication) sit far above
// the IBE token (one pairing); throughput scales with clients until CPU
// saturation.
func Throughput(w *World, cfg ThroughputConfig) (*Table, error) {
	if w.Addr() == "" {
		return nil, fmt.Errorf("bench: throughput needs a running SEM server")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	msg := make([]byte, w.MsgLen)
	ct, err := w.IBEPKG.Public().Encrypt(rand.Reader, w.ID, msg)
	if err != nil {
		return nil, err
	}
	h, err := bls.HashMessage(w.Pairing, []byte("f3 throughput probe"))
	if err != nil {
		return nil, err
	}
	// The half-decryption op computes c^{d_sem} mod n for any residue, so a
	// random element of Z_n stands in for a real OAEP ciphertext (which
	// would not even fit the 512-bit quick-mode modulus).
	rsaInt, err := rand.Int(rand.Reader, w.RSAPub.N)
	if err != nil {
		return nil, err
	}

	// Batch fixtures: the same requests replicated batchK-wide, served as
	// one protocol-v2 frame per round trip.
	const batchK = 64
	ids := make([]string, batchK)
	us := make([]*curve.Point, batchK)
	hs := make([]*curve.Point, batchK)
	cts := make([]*big.Int, batchK)
	for i := 0; i < batchK; i++ {
		ids[i] = w.ID
		us[i] = ct.U
		hs[i] = h
		cts[i] = rsaInt
	}
	firstBatchErr := func(errs []error) error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}

	workloads := []struct {
		name string
		ops  int // requests served per body call
		body func(c *sem.Pool) error
	}{
		{"ibe-token", 1, func(c *sem.Pool) error {
			_, err := c.IBEToken(w.ID, ct.U)
			return err
		}},
		{"gdh-half-sign", 1, func(c *sem.Pool) error {
			_, err := c.GDHHalfSign(w.ID, h)
			return err
		}},
		{"rsa-half-sign", 1, func(c *sem.Pool) error {
			_, err := c.RSAHalfSign(w.RSAPub, w.ID, msg)
			return err
		}},
		{"ibe-token-batch64", batchK, func(c *sem.Pool) error {
			_, errs, err := c.TokenBatch(ids, us)
			if err != nil {
				return err
			}
			return firstBatchErr(errs)
		}},
		{"gdh-half-sign-batch64", batchK, func(c *sem.Pool) error {
			_, errs, err := c.GDHHalfSignBatch(ids, hs)
			if err != nil {
				return err
			}
			return firstBatchErr(errs)
		}},
		{"rsa-half-dec-batch64", batchK, func(c *sem.Pool) error {
			_, errs, err := c.RSAHalfDecryptBatch(w.RSAPub, ids, cts)
			if err != nil {
				return err
			}
			return firstBatchErr(errs)
		}},
	}

	var rows [][]string
	for _, wl := range workloads {
		for _, nClients := range cfg.Clients {
			opsPerSec, err := w.measure(wl.body, wl.ops, nClients, cfg.Duration)
			if err != nil {
				return nil, fmt.Errorf("%s @%d clients: %w", wl.name, nClients, err)
			}
			rows = append(rows, []string{
				wl.name,
				fmt.Sprintf("%d", nClients),
				fmt.Sprintf("%.0f", opsPerSec),
			})
		}
	}
	return &Table{
		ID:      "F3",
		Caption: "SEM daemon throughput over TCP vs concurrent clients",
		Columns: []string{"operation", "clients", "tokens/sec"},
		Rows:    rows,
		Notes: []string{
			"expected shape: rsa-half-sign ≥ gdh-half-sign ≫ ibe-token (pairing-bound); scaling with clients up to CPU saturation",
			"batch64 rows serve 64 requests per protocol-v2 frame; the rate counts individual requests, so batch ≫ single is the framing+batching win",
		},
	}, nil
}

// measure hammers the SEM with nClients concurrent connections for the
// window and returns the aggregate request rate; opsPerCall is the number
// of requests one body call serves (1 for single ops, k for k-batches).
func (w *World) measure(body func(*sem.Pool) error, opsPerCall, nClients int, d time.Duration) (float64, error) {
	clients := make([]*sem.Pool, 0, nClients)
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for range nClients {
		c, err := w.Dial()
		if err != nil {
			return 0, err
		}
		clients = append(clients, c)
	}
	n, elapsed, err := closedLoop(nClients, d, func(c, _ int) (int, error) {
		return opsPerCall, body(clients[c])
	})
	if err != nil {
		return 0, err
	}
	return float64(n) / elapsed.Seconds(), nil
}

// closedLoop runs n closed-loop workers for the window d: worker w calls
// op(w, i) for i = 0, 1, … until the window closes or a call fails, and each
// call returns the number of requests it served. It returns the requests
// served and the wall time from the workers' start to the last one's return,
// or the error of a worker that failed.
func closedLoop(n int, d time.Duration, op func(w, i int) (int, error)) (int64, time.Duration, error) {
	var served atomic.Int64
	errs := make([]error, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, err := op(w, i)
				if err != nil {
					errs[w] = err
					return
				}
				served.Add(int64(k))
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return served.Load(), elapsed, nil
}
