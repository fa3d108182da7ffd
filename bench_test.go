package repro

// One benchmark per table/figure of EXPERIMENTS.md, plus the ablations
// DESIGN.md calls out. The heavyweight fixtures (paper-size pairing, RSA
// worlds, SEM daemon) are built once and shared.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkT3Ops -benchmem

import (
	"crypto/rand"
	"io"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/revoke"
)

var (
	worldOnce sync.Once
	world     *bench.World
	worldErr  error
)

// paperWorld builds the shared paper-size deployment (|q|=160, |p|=512
// pairing; 1024-bit IB-mRSA) with a live SEM daemon.
func paperWorld(b *testing.B) *bench.World {
	b.Helper()
	worldOnce.Do(func() {
		world, worldErr = bench.NewWorld(bench.WorldConfig{StartServer: true})
	})
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return world
}

// BenchmarkT1Sizes regenerates Table 1 (key/ciphertext sizes).
func BenchmarkT1Sizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Sizes(bench.SizesConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT2Communication regenerates Table 2 (SEM→user traffic) over the
// live TCP protocol.
func BenchmarkT2Communication(b *testing.B) {
	w := paperWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Communication(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3Ops regenerates Table 3: one sub-benchmark per operation and
// party, at the paper's parameter sizes.
func BenchmarkT3Ops(b *testing.B) {
	w := paperWorld(b)
	ops, err := bench.Ops(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range ops {
		b.Run(op.Scheme+"/"+op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT4AttackMatrix regenerates Table 4: the executable
// compromise/collusion matrix (dominated by factoring n from (e, d)).
func BenchmarkT4AttackMatrix(b *testing.B) {
	w := paperWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.Attacks(w)
		if err != nil {
			b.Fatal(err)
		}
		if !outcomes[0].SystemBroke {
			b.Fatal("IB-mRSA collusion attack failed")
		}
	}
}

// BenchmarkF1Revocation regenerates Figure 1: revocation latency and PKG
// cost across models, periods and populations (simulated clock — the bench
// measures the sweep itself).
func BenchmarkF1Revocation(b *testing.B) {
	cfg := bench.DefaultRevocationConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Revocation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2Threshold regenerates Figure 2: threshold decryption scaling;
// one sub-benchmark per (t, n) for the robust path.
func BenchmarkF2Threshold(b *testing.B) {
	pp, err := pairing.Fast()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int{1, 2, 4, 8} {
		tt, n := t, 2*t-1
		b.Run(thresholdLabel(t), func(b *testing.B) {
			pkg, err := core.SetupThreshold(rand.Reader, pp, 32, tt, n)
			if err != nil {
				b.Fatal(err)
			}
			p := pkg.Params()
			id := "bench@example.com"
			keyShares := make([]*core.KeyShare, n)
			for i := 1; i <= n; i++ {
				if keyShares[i-1], err = pkg.ExtractShare(id, i); err != nil {
					b.Fatal(err)
				}
			}
			ct, err := p.Public.EncryptBasic(rand.Reader, id, make([]byte, 32))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shares := make([]*core.DecryptionShare, n)
				for j := 0; j < n; j++ {
					if shares[j], err = p.ComputeShareWithProof(rand.Reader, keyShares[j], ct.U); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := p.RobustDecrypt(id, shares, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func thresholdLabel(t int) string {
	return "t=" + string(rune('0'+t))
}

// BenchmarkF3SEMThroughput regenerates Figure 3: SEM daemon throughput at
// fixed concurrency (full sweep via cmd/benchtab -exp f3).
func BenchmarkF3SEMThroughput(b *testing.B) {
	w := paperWorld(b)
	client, err := w.Dial()
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	h, err := bls.HashMessage(w.Pairing, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.GDHHalfSign(w.ID, h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- primitive-level benchmarks: the costs T3 decomposes into ---

func BenchmarkPairing(b *testing.B) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		P := pp.Generator()
		Q, err := pp.Curve().HashToPoint("bench", []byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = pp.Pair(P, Q)
			}
		})
	}
}

// BenchmarkScalarMul compares the two scalar-multiplication strategies at
// paper size: the variable-base w-NAF/Jacobian path for public scalars and
// the constant-time comb behind Params.GeneratorMul.
func BenchmarkScalarMul(b *testing.B) {
	pp, _ := pairing.Paper()
	P := pp.Generator()
	k, _ := rand.Int(rand.Reader, pp.Q())
	pp.GeneratorMul(k) // force the lazy comb build outside the timer
	b.Run("variable-wnaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			P.ScalarMul(k)
		}
	})
	b.Run("generator-comb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pp.GeneratorMul(k)
		}
	})
}

// BenchmarkGTExp compares generic square-and-multiply GT exponentiation with
// the constant-time comb the BF encryptor caches per recipient.
func BenchmarkGTExp(b *testing.B) {
	pp, _ := pairing.Paper()
	Q, err := pp.Curve().HashToPoint("bench", []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := pp.Pair(pp.Generator(), Q)
	if err != nil {
		b.Fatal(err)
	}
	comb, err := pairing.NewGTSecretComb(g)
	if err != nil {
		b.Fatal(err)
	}
	k, _ := rand.Int(rand.Reader, pp.Q())
	b.Run("square-multiply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = g.Exp(k)
		}
	})
	b.Run("secret-comb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comb.ExpSecret(k)
		}
	})
}

func BenchmarkHashToPoint(b *testing.B) {
	pp, _ := pairing.Paper()
	var ctr [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr[0] = byte(i)
		if _, err := pp.Curve().HashToPoint("bench", ctr[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAModExp(b *testing.B) {
	kp, err := mrsa.FixedPaperKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	c, _ := rand.Int(rand.Reader, kp.Public.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(c, kp.D, kp.Public.N)
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationPointCompression: compressed points trade a sqrt at
// decode time for half the wire size — the trade behind the paper's key
// size comparison.
func BenchmarkAblationPointCompression(b *testing.B) {
	pp, _ := pairing.Paper()
	P, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := P.Marshal()
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			P.Marshal()
		}
	})
	b.Run("unmarshal-sqrt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pp.Curve().Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSafePrimes: the cost IB-mRSA's Setup pays for safe
// primes (measured at 256 bits; 512-bit safe primes take minutes).
func BenchmarkAblationSafePrimes(b *testing.B) {
	b.Run("safe-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mathx.RandomSafePrime(rand.Reader, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plain-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mathx.RandomPrime(rand.Reader, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRobustness: threshold decryption with vs without the
// NIZK share proofs (the price of byzantine tolerance).
func BenchmarkAblationRobustness(b *testing.B) {
	pp, _ := pairing.Fast()
	pkg, err := core.SetupThreshold(rand.Reader, pp, 32, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	p := pkg.Params()
	id := "bench@example.com"
	var keyShares []*core.KeyShare
	for i := 1; i <= 5; i++ {
		ks, err := pkg.ExtractShare(id, i)
		if err != nil {
			b.Fatal(err)
		}
		keyShares = append(keyShares, ks)
	}
	msg := make([]byte, 32)
	ct, err := p.Public.EncryptBasic(rand.Reader, id, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shares := make([]*core.DecryptionShare, 3)
			for j := 0; j < 3; j++ {
				if shares[j], err = p.ComputeShare(keyShares[j], ct.U); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := p.Recombine(shares, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("robust", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shares := make([]*core.DecryptionShare, 5)
			for j := 0; j < 5; j++ {
				var err error
				if shares[j], err = p.ComputeShareWithProof(rand.Reader, keyShares[j], ct.U); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, err := p.RobustDecrypt(id, shares, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- integration tests at the repository level ---

// TestT4AttackMatrix pins the T4 verdicts at paper sizes.
func TestT4AttackMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size attack matrix in short mode")
	}
	w, err := bench.NewWorld(bench.WorldConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	outcomes, err := bench.Attacks(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		switch o.Scheme {
		case "ib-mrsa":
			if !o.SystemBroke {
				t.Errorf("IB-mRSA: %s", o.Detail)
			}
		default:
			if o.SystemBroke {
				t.Errorf("%s: %s", o.Scheme, o.Detail)
			}
		}
	}
}

// TestT5SecurityGames runs one round of each game at paper parameters to
// confirm the harness holds up beyond the toy field (statistics live in
// internal/core).
func TestT5SecurityGames(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size security games in short mode")
	}
	pp, err := pairing.Paper()
	if err != nil {
		t.Fatal(err)
	}
	cheat := &core.CheatingTCPAAdversary{ID: "target@example.com", MsgLen: 32}
	won, err := core.RunTCPAGame(rand.Reader, pp, 32, 2, 3, cheat)
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Error("cheating TCPA adversary lost at paper parameters")
	}
	wcheat := &core.CheatingWCCAAdversary{ID: "target@example.com", MsgLen: 32}
	won, err = core.RunWCCAGame(rand.Reader, pp, 32, wcheat)
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Error("cheating wCCA adversary lost at paper parameters")
	}
}

// TestEndToEndAtPaperParameters is the repository's smoke test: enroll,
// encrypt, sign, revoke — everything at the paper's sizes, through the TCP
// daemon.
func TestEndToEndAtPaperParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size end-to-end in short mode")
	}
	w, err := bench.NewWorld(bench.WorldConfig{StartServer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	client, err := w.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	msg := make([]byte, w.MsgLen)
	if _, err := io.ReadFull(rand.Reader, msg); err != nil {
		t.Fatal(err)
	}
	ct, err := w.IBEPKG.Public().Encrypt(rand.Reader, w.ID, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptIBE(w.IBEPKG.Public(), w.IBEUser, ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("paper-size decryption mismatch")
	}
	sig, err := client.SignGDH(w.GDHUser, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.GDHUser.Public.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke(w.ID, "end of test"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DecryptIBE(w.IBEPKG.Public(), w.IBEUser, ct); err == nil {
		t.Fatal("revoked identity decrypted at paper parameters")
	}
}

// TestRevocationModelsSanity pins the headline F1 shape in a fast test.
func TestRevocationModelsSanity(t *testing.T) {
	sc := &revoke.Scenario{
		Population:  50,
		Duration:    14 * 24 * time.Hour,
		RevokeTimes: []time.Duration{5 * time.Hour},
	}
	semRes, err := sc.Run(revoke.NewSEM())
	if err != nil {
		t.Fatal(err)
	}
	vpRes, err := sc.Run(revoke.NewValidityPeriod(24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if semRes.MeanLatency != 0 {
		t.Errorf("SEM latency %v, want 0", semRes.MeanLatency)
	}
	if vpRes.MeanLatency < 18*time.Hour {
		t.Errorf("validity latency %v, want ≈19h", vpRes.MeanLatency)
	}
}
