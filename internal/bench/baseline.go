package bench

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/pairing"
	"repro/internal/sem"
	"repro/internal/wire"
)

// BaselineEntry is one timed primitive in a baseline snapshot.
// AllocsPerOp is the mean number of heap allocations per iteration — nil in
// snapshots taken before the column existed, so comparisons can tell
// "unmeasured" from a genuine zero (the limb-arithmetic entries are gated at
// exactly zero).
type BaselineEntry struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	Iters       int      `json:"iters"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// BaselineReport is a machine-readable snapshot of the group-arithmetic
// primitives the schemes are built from. A committed snapshot gives future
// changes a reference point: rerun with the same parameter set and compare
// ratios (absolute numbers are machine-dependent; the ratios between entries
// and between two runs on one machine are the signal).
type BaselineReport struct {
	Params    string          `json:"params"`
	QBits     int             `json:"q_bits"`
	PBits     int             `json:"p_bits"`
	GoVersion string          `json:"go_version"`
	GOARCH    string          `json:"goarch"`
	FpKernel  string          `json:"fp_kernel,omitempty"` // fp.Kernel(): what fp.mul and everything above it ran on
	Entries   []BaselineEntry `json:"entries"`
	Ratios    []BaselineRatio `json:"ratios,omitempty"`
}

// BaselineRatio is the quotient of two primitives' costs, named
// "num ÷ den" after the entries it relates. It is not the quotient of their
// Entries rows: those are timed one after the other, tens of milliseconds
// apart, and on a shared host the speed moves by more than the gates'
// margins in that time. The two sides are timed in short alternating
// bursts instead and the fastest burst of each is taken (measureRatio), so
// a slow spell hits both sides or neither. NA marks a gate that does not
// apply to the run (a zero ratioGate bound under the run's field kernel):
// nothing was measured and nothing is held to the bound.
type BaselineRatio struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	NA    bool    `json:"na,omitempty"`
}

// measureRatio returns cost(num) ÷ cost(den) per call from rounds
// alternating bursts, burst calls of num and denBurst of den (burst where
// denBurst is zero).
func measureRatio(num, den func() error, rounds, burst, denBurst int) (float64, error) {
	if denBurst == 0 {
		denBurst = burst
	}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for r := 0; r < rounds; r++ {
		for side, body := range [2]func() error{num, den} {
			n := [2]int{burst, denBurst}[side]
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := body(); err != nil {
					return 0, err
				}
			}
			if d := time.Since(t0); d < best[side] {
				best[side] = d
			}
		}
	}
	return float64(best[0]) / float64(best[1]) * float64(denBurst) / float64(burst), nil
}

// benchScalar derives a fixed sub-q scalar from a label. Bench inputs must
// be deterministic: the ladder and wNAF workloads' operation counts — and
// therefore their allocation columns — scale with the scalar's bit
// pattern, so a fresh random scalar per run makes snapshot-vs-check
// comparisons inherently flaky.
//
//cryptolint:vartime (bench-fixture derivation from a public label; nothing secret flows in)
func benchScalar(label string, q *big.Int) *big.Int {
	h := sha256.New()
	var buf []byte
	for ctr := byte(0); len(buf) < q.BitLen()/8+16; ctr++ {
		h.Reset()
		h.Write([]byte(label))
		h.Write([]byte{ctr})
		buf = h.Sum(buf)
	}
	k := new(big.Int).SetBytes(buf)
	return k.Mod(k, q)
}

// Baseline times the primitive operations behind every scheme: the field
// multiplication and squaring as Field dispatches them, on the portable Go
// kernels and on the any-width loop, a modulus-sized field exponentiation,
// the pairing (optimized and full-Miller oracle), the public w-NAF ladder
// against the secret-scalar ladder and comb, the same three ways of raising a
// GT element, one BF FullIdent
// encrypt/decrypt pair (encryption to a known and to a new recipient),
// hash-to-G1 with and without its cofactor clearing, one threshold-IBE share
// with its proof,
// that proof's verification alone and the five of one decryption as a batch,
// the two small-n kernels under it, a (3, 5) cluster decryption with and
// without a failed first choice, and the hot token's boundary steps (point
// decode with and without the subgroup ladder, final exponentiation, GT
// check). Each body runs for at least minIters iterations and minDuration
// wall time, whichever is larger.
func Baseline(pp *pairing.Params, minIters int, minDuration time.Duration) (*BaselineReport, error) {
	P := pp.Generator()
	Q, err := pp.Curve().HashToPoint("baseline", []byte("x"))
	if err != nil {
		return nil, err
	}
	k := benchScalar("bench.k", pp.Q())
	g, err := pp.Pair(P, Q)
	if err != nil {
		return nil, err
	}
	fixed, err := pp.NewFixedPair(P)
	if err != nil {
		return nil, err
	}
	pp.GeneratorMul(k) // build the lazy generator comb outside the timers
	comb, err := curve.NewSecretComb(P)
	if err != nil {
		return nil, err
	}
	// Four pairing values prepared for one secret exponent: a prover's W1
	// and W2 are two such bases, a recombiner's final exponentiations four.
	var gtBases4 []*pairing.SecretBase
	for h := g; len(gtBases4) < 4; h = h.Mul(g) {
		b, err := h.SecretBase()
		if err != nil {
			return nil, err
		}
		gtBases4 = append(gtBases4, b)
	}

	pkg, err := bf.Setup(rand.Reader, pp, 32)
	if err != nil {
		return nil, err
	}
	pub := pkg.Public()
	const id = "baseline@example.com"
	key, err := pkg.Extract(id)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 32)
	ct, err := pub.Encrypt(rand.Reader, id, msg)
	if err != nil {
		return nil, err
	}
	// A mediated GDH signer and its SEM, in-process.
	gdhUser, gdhSEMKey, err := core.NewGDHAuthority(pp).Keygen(rand.Reader, id)
	if err != nil {
		return nil, err
	}
	gdhSEM := core.NewGDHSEM(pp, core.NewRegistry())
	gdhSEM.Register(gdhSEMKey)

	// Threshold-IBE fixtures: the installed key shares of a (3, 5) system,
	// every player's share of one ciphertext with its robustness proof, and
	// the identity's hash as a recombiner holds it across one decryption.
	const thibeN = 5
	tpkg, err := core.SetupThreshold(rand.Reader, pp, 32, 3, thibeN)
	if err != nil {
		return nil, err
	}
	tparams := tpkg.Params()
	tshares := make([]*core.KeyShare, thibeN)
	tproofs := make([]*core.DecryptionShare, thibeN)
	for i := range tshares {
		if tshares[i], err = tpkg.ExtractShare(id, i+1); err != nil {
			return nil, err
		}
		if err := tparams.VerifyKeyShare(tshares[i]); err != nil {
			return nil, err
		}
		if tproofs[i], err = tparams.ComputeShareWithProof(rand.Reader, tshares[i], ct.U); err != nil {
			return nil, err
		}
	}
	qid, err := bf.HashIdentityArg(pp, id)
	if err != nil {
		return nil, err
	}
	// Player 1 as a server holds it: the share installed, so a request is
	// served from the identity's cached Miller program after the first.
	tplayer, err := core.NewThresholdPlayer(tparams, 1, core.NewRegistry())
	if err != nil {
		return nil, err
	}
	if err := tplayer.Install(tshares[0]); err != nil {
		return nil, err
	}
	// A SEM in front of four times as many identities as its program cache
	// holds (core's pairerCapacity is 256; the benchmark's token_cold has
	// the same proportion): a working set that fills the cache, asked once
	// in four requests, and a scan going round the other three quarters in
	// between. It is plain LRU's worst case — the scan flushes each
	// working-set program before its owner returns, so every token builds a
	// program and evicts one unused — and with admission any four tokens in
	// a row are one replay and three plain pairings. (The working set is
	// asked in an order that changes every time round: in a fixed rota the
	// one identity a stray admission displaces is always the next one due,
	// and so is the one it displaces in turn.) The halves are multiples of
	// the generator — a SEM does not care whose key it holds half of —
	// validated here as the wire decoder validates a half that is registered
	// (the point remembers the verdict).
	const scanIDs, scanResident = 1024, 256
	scanSEM := core.NewIBESEM(pub, core.NewRegistry())
	scanNames := make([]string, scanIDs)
	for i := range scanNames {
		scanNames[i] = fmt.Sprintf("scan%04d@example.com", i)
		d := pp.GeneratorMul(benchScalar(scanNames[i], pp.Q()))
		if err := d.Validate(); err != nil {
			return nil, err
		}
		scanSEM.Register(&core.SEMKeyHalf{ID: scanNames[i], D: d})
	}
	// The scan asks as the SEM's ibe_token is asked: with U's abscissa.
	scanU, err := pp.Curve().UnmarshalX(ct.U.Marshal())
	if err != nil {
		return nil, err
	}
	// Warm-up: the working set, then the working set again and the scan's
	// first stretch, which is what it takes to flush an LRU.
	for _, name := range append(scanNames[:scanResident:scanResident], scanNames[:2*scanResident]...) {
		if _, err := scanSEM.TokenX(name, scanU); err != nil {
			return nil, err
		}
	}
	if n := scanSEM.PairerCacheLen(); n != scanResident {
		return nil, fmt.Errorf("baseline ibe.token.scan: the SEM caches %d programs, the fixture is built for %d", n, scanResident)
	}
	scanCalls, scanNext := 0, 2*scanResident
	scanToken := func() error {
		name := scanNames[scanNext]
		if scanCalls%4 == 0 {
			// Odd multipliers permute Z/256: a different order each round,
			// none of them the warm-up's.
			turn, round := scanCalls/4%scanResident, scanCalls/4/scanResident+1
			name = scanNames[((2*round+1)*turn+97*round)%scanResident]
		} else if scanNext++; scanNext == scanIDs {
			scanNext = scanResident
		}
		scanCalls++
		_, err := scanSEM.TokenX(name, scanU)
		return err
	}
	// The same system as a live cluster: five player servers on loopback and
	// a ciphertext for the identity they hold shares of.
	tcluster, err := newBaselineCluster(tparams, tshares)
	if err != nil {
		return nil, err
	}
	defer tcluster.close()
	tct, err := tparams.Public.EncryptBasic(rand.Reader, id, msg)
	if err != nil {
		return nil, err
	}
	// The right-hand side of the batched proof check has four GT terms per
	// share; its shape with full-width exponents is the multi-exponentiation
	// entry.
	var gtBases []*pairing.GT
	var gtExps []*big.Int
	for i, ds := range tproofs {
		gtBases = append(gtBases, ds.G, ds.Proof.W1, ds.Proof.W2, ds.G.Mul(ds.Proof.W1))
		for j := 0; j < 4; j++ {
			gtExps = append(gtExps, benchScalar(fmt.Sprintf("bench.gtexp.%d.%d", i, j), pp.Q()))
		}
	}

	// Batch-kernel fixtures: a 256-member MSM input (Add-chain points, cheap
	// even at paper size; random sub-q scalars) and a 256-signature batch
	// under one key, plus 8 pairing pairs for the chunked Miller walk.
	cv := pp.Curve()
	const msmN = 256
	msmPts := make([]*curve.Point, msmN)
	msmKs := make([]*big.Int, msmN)
	chain := Q
	for i := 0; i < msmN; i++ {
		msmPts[i] = chain
		chain = chain.Add(Q)
		msmKs[i] = benchScalar(fmt.Sprintf("bench.msm.%d", i), pp.Q())
	}
	sk, err := bls.GenerateKey(rand.Reader, pp)
	if err != nil {
		return nil, err
	}
	const batchN = 256
	batchMsgs := make([][]byte, batchN)
	batchSigs := make([]*curve.Point, batchN)
	for i := 0; i < batchN; i++ {
		batchMsgs[i] = []byte(fmt.Sprintf("baseline batch message %d", i))
		if batchSigs[i], err = sk.Sign(batchMsgs[i]); err != nil {
			return nil, err
		}
	}
	mpPs := make([]*curve.Point, 8)
	mpQs := make([]*curve.Point, 8)
	for i := range mpPs {
		mpPs[i] = msmPts[2*i]
		mpQs[i] = msmPts[2*i+1]
	}

	// Protocol-v2 codec fixtures: a 64-item request frame round-tripped
	// through preallocated encoder/decoder state. These are the committed
	// zero-alloc gate on the wire hot path — their AllocsPerOp entries must
	// stay at exactly 0.
	const codecK = 64
	codecItems := make([]wire.ReqItem, codecK)
	codecPayload := make([]byte, 64)
	for i := range codecItems {
		codecItems[i] = wire.ReqItem{ID: []byte(id), Payload: codecPayload}
	}
	var codecEnc wire.FrameEncoder
	var codecDec wire.FrameDecoder
	codecFrame, err := codecEnc.EncodeRequest(1, codecItems, 0)
	if err != nil {
		return nil, err
	}
	codecReader := bytes.NewReader(codecFrame)

	// SEM protocol fixtures: a live loopback daemon serving the IBE token
	// op, measured one request per round trip and 64 requests per batch
	// frame. The committed pair documents the batching speedup and gates
	// it against regression.
	semWorld, err := newBaselineSEM(pp, id)
	if err != nil {
		return nil, err
	}
	defer semWorld.close()
	semIDs := make([]string, codecK)
	semUs := make([]*curve.Point, codecK)
	for i := range semIDs {
		semIDs[i] = id
		semUs[i] = ct.U
	}

	// Journal fixtures: a temp-dir JSONL journal for the durable append
	// path. Every iteration revokes a fresh identity so each op is a real
	// record append + fsync; the group16 variant drives 16 concurrent
	// writers per op, so journal.append ÷ (journal.append.group16/16) is
	// the committed group-commit coalescing factor. Timings are dominated
	// by fsync and vary widely across filesystems, so -check holds these
	// two to their presence and allocations only (fsyncBound).
	journalDir, err := os.MkdirTemp("", "bench-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journalDir)
	benchJournal, err := core.OpenJournal(filepath.Join(journalDir, "revocations.jsonl"))
	if err != nil {
		return nil, err
	}
	defer benchJournal.Close()
	// An identity costs one allocation whatever the counter reads. Through
	// fmt the counter would box for free below 256 and cost one more
	// allocation from there on, so the journal entries' allocs column would
	// depend on how many ops ran before a pass.
	var journalCtr atomic.Uint64
	nextJournalID := func() string {
		var b [48]byte
		id := strconv.AppendUint(append(b[:0], "bench"...), journalCtr.Add(1), 10)
		return string(append(id, "@journal.test"...))
	}
	// The group16 entry's writers live as long as the fixture: spawned per
	// op, each would cost a g struct or not as the scheduler happened to
	// reuse a dead one. Both channels are unbuffered, so each of an op's
	// jobs goes to a different writer.
	const journalWriters = 16
	journalJobs, journalDone := make(chan struct{}), make(chan error)
	var writers sync.WaitGroup
	for range journalWriters {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for range journalJobs {
				journalDone <- benchJournal.Revoke(nextJournalID(), "bench")
			}
		}()
	}
	defer func() {
		close(journalJobs)
		writers.Wait()
	}()

	// batchVerifySequential replays the pre-Pippenger batch loop through the
	// public API — full-order ScalarMul subgroup checks and per-member
	// accumulation — as the committed comparator for batchverify.256.
	batchVerifySequential := func() error {
		sAcc := cv.Infinity()
		tAcc := cv.Infinity()
		var buf [8]byte
		for i, sig := range batchSigs {
			if !sig.ScalarMul(cv.Q()).IsInfinity() {
				return fmt.Errorf("batch member %d outside G1", i)
			}
			ti, err := cv.HashToPointUncleared("GDH-SIG-H", batchMsgs[i])
			if err != nil {
				return err
			}
			if _, err := rand.Read(buf[:]); err != nil {
				return err
			}
			r := new(big.Int).SetBytes(buf[:])
			r.Add(r, big.NewInt(1))
			sAcc = sAcc.Add(sig.ScalarMul(r))
			tAcc = tAcc.Add(ti.ScalarMul(r))
		}
		hAcc := tAcc.ScalarMul(cv.Cofactor())
		prod, err := pp.MultiPair(
			[]*curve.Point{pp.Generator(), sk.Public.R.Neg()},
			[]*curve.Point{sAcc, hAcc},
		)
		if err != nil {
			return err
		}
		if !prod.IsOne() {
			return fmt.Errorf("sequential batch comparator rejected a valid batch")
		}
		return nil
	}

	// Token-boundary fixtures: the compressed ciphertext point a SEM decodes
	// (with and without the [q]· subgroup ladder) and the final
	// exponentiation's tail (p+1)/q — the curve's cofactor — over an
	// arbitrary Miller-shaped value.
	uBytes := ct.U.Marshal()
	uX, err := wire.UnmarshalPairingX(cv, uBytes)
	if err != nil {
		return nil, err
	}
	// A recombiner's round of three proof points V, decoded in one call.
	vBytes := make([][]byte, len(tproofs[:3]))
	for i, ds := range tproofs[:3] {
		vBytes[i] = ds.Proof.V.Marshal()
	}
	vs, vErrs := make([]curve.EvalPoint, len(vBytes)), make([]error, len(vBytes))
	expTail := cv.Cofactor()
	qx, err := cv.UnmarshalX(Q.Marshal())
	if err != nil {
		return nil, err
	}

	// Field-layer bodies: the F_p² tower and the raw Montgomery limb ops it
	// is built from. These are the entries the zero-alloc gate watches.
	fld := pp.Field()
	e1 := fld.NewElement(P.X(), P.Y())
	e2 := fld.NewElement(Q.X(), Q.Y())
	eOut := fld.One()
	F := fld.Fp()
	fx, fy, fz := F.NewElt(), F.NewElt(), F.NewElt()
	if err := F.FromBig(fx, P.X()); err != nil {
		return nil, err
	}
	if err := F.FromBig(fy, Q.X()); err != nil {
		return nil, err
	}

	// A modulus-sized exponent, as Exp's caller passes: the point decode's
	// root (p+1)/4. (p itself, so that no math/big arithmetic happens here:
	// 512 squarings where the root has 510.)
	modExp := F.P()

	bodies := []struct {
		name string
		run  func() error
	}{
		{"fp.add", func() error { F.Add(fz, fx, fy); return nil }},
		{"fp.sub", func() error { F.Sub(fz, fx, fy); return nil }},
		{"fp.mul", func() error { F.Mul(fz, fx, fy); return nil }},
		{"fp.mul.generic", func() error { F.MulGeneric(fz, fx, fy); return nil }},
		{"fp.mul.go", func() error { F.MulGo(fz, fx, fy); return nil }},
		{"fp.square", func() error { F.Square(fz, fx); return nil }},
		{"fp.square.go", func() error { F.SquareGo(fz, fx); return nil }},
		{"fp.exp", func() error { F.Exp(fz, fx, modExp); return nil }},
		{"fp.inv", func() error { return F.Inv(fz, fx) }},
		{"fp.legendre", func() error { F.Legendre(fx); return nil }},
		{"gf.mul", func() error { eOut.Mul(e1, e2); return nil }},
		{"gf.square", func() error { eOut.Square(e1); return nil }},
		{"pair", func() error { _, err := pp.Pair(P, Q); return err }},
		{"pair.fixed", func() error { _, err := fixed.Pair(Q); return err }},
		{"pair.x", func() error { _, err := pp.PairX(P, qx); return err }},
		{"pair.fixed.x", func() error { _, err := fixed.PairX(qx); return err }},
		{"pair.fixed.precompute", func() error { _, err := pp.NewFixedPair(P); return err }},
		{"pair.finalexp", func() error { _, err := eOut.ExpUnitaryPart(e1, nil, expTail); return err }},
		{"multipair.2", func() error {
			_, err := pp.MultiPair([]*curve.Point{P, Q}, []*curve.Point{Q, P})
			return err
		}},
		{"scalarmul.variable-wnaf", func() error { P.ScalarMul(k); return nil }},
		// The secret-scalar path: the constant-time ladder and exponentiation,
		// the two combs a threshold player keeps per identity (of its key
		// share and of the share's pairing constant), and what each costs
		// to build (about one ladder: they pay from their second use).
		{"scalarmul.secret", func() error { _, err := P.ScalarMulSecret(k); return err }},
		{"scalarmul.secret-comb", func() error { comb.ScalarMul(k); return nil }},
		{"scalarmul.secret-comb.build", func() error { _, err := curve.NewSecretComb(P); return err }},
		{"gtexp.square-multiply", func() error { _, err := g.Exp(k); return err }},
		{"gtexp.secret", func() error { _, err := g.ExpSecret(k); return err }},
		{"gtexp.secret.x1", func() error { pp.ExpSecretEach(k, gtBases4[0]); return nil }},
		{"gtexp.secret.x4", func() error { pp.ExpSecretEach(k, gtBases4...); return nil }},
		{"gdh.sign.mediated", func() error { _, err := core.SignGDH(gdhUser, msg, gdhSEM.HalfSign); return err }},
		{"gt.ingt", func() error {
			if !pp.InGT(g) {
				return fmt.Errorf("pairing value outside GT")
			}
			return nil
		}},
		{"wire.g1", func() error { _, err := wire.UnmarshalG1(cv, uBytes); return err }},
		{"wire.pairing-arg", func() error { _, err := wire.UnmarshalPairingArg(cv, uBytes); return err }},
		{"wire.pairing-x", func() error { _, err := wire.UnmarshalPairingX(cv, uBytes); return err }},
		{"wire.pairing-arg.x3", func() error {
			wire.UnmarshalPairingArgs(cv, vs, vErrs, vBytes...)
			return errors.Join(vErrs...)
		}},
		{"bf.encrypt", func() error { _, err := pub.Encrypt(rand.Reader, id, msg); return err }},
		// bf.encrypt is a later message to a recipient (its GT comb cached);
		// a first one pays the hash onto the curve, one replay of P_pub's
		// program and the comb build.
		{"bf.encrypt.first", encryptFirst(pub, msg)},
		{"bf.decrypt", func() error { _, err := pub.Decrypt(key, ct); return err }},
		{"hash.to-g1", func() error { _, err := bf.HashIdentity(pp, id); return err }},
		{"hash.to-g1.arg", func() error { _, err := bf.HashIdentityArg(pp, id); return err }},
		{"ibe.token.scan", scanToken},
		{"thibe.share-with-proof", func() error {
			_, err := tparams.ComputeShareWithProof(rand.Reader, tshares[0], ct.U)
			return err
		}},
		{"thibe.player-share", func() error { _, err := tplayer.Share(id, uX); return err }},
		{"thibe.verify-proof", func() error { return tparams.VerifyShareProofFor(qid, ct.U, tproofs[0]) }},
		{"thibe.verify-batch5", func() error { return tparams.VerifyShareProofs(qid, ct.U, tproofs) }},
		{"thibe.verify-single5", func() error {
			for _, ds := range tproofs {
				if err := tparams.VerifyShareProofFor(qid, ct.U, ds); err != nil {
					return err
				}
			}
			return nil
		}},
		{"cluster.decrypt.honest", func() error { return tcluster.decrypt(tcluster.addrs, id, tct) }},
		{"cluster.decrypt.escalated", func() error { return tcluster.decrypt(tcluster.addrsPlayer2Down, id, tct) }},
		{"gtexp.multi4x5", func() error { _, err := pp.MultiExp(gtBases, gtExps); return err }},
		{"msm.5", func() error {
			_, err := cv.MSM(msmKs[:5], msmPts[:5])
			return err
		}},
		{"msm.64", func() error {
			_, err := cv.MSM(msmKs[:64], msmPts[:64])
			return err
		}},
		{"msm.256", func() error {
			_, err := cv.MSM(msmKs, msmPts)
			return err
		}},
		{"msm.256.sequential", func() error {
			acc := cv.Infinity()
			for i, pt := range msmPts {
				acc = acc.Add(pt.ScalarMul(msmKs[i]))
			}
			return nil
		}},
		{"batchverify.256", func() error {
			return sk.Public.BatchVerify(rand.Reader, batchMsgs, batchSigs)
		}},
		{"batchverify.256.sequential", batchVerifySequential},
		{"multipair.8.parallel", func() error {
			_, err := pp.MultiPair(mpPs, mpQs)
			return err
		}},
		{"wire.v2.encode.64", func() error {
			_, err := codecEnc.EncodeRequest(1, codecItems, 0)
			return err
		}},
		{"wire.v2.decode.64", func() error {
			codecReader.Reset(codecFrame)
			_, _, _, err := codecDec.ReadRequest(codecReader, 0, 0)
			return err
		}},
		{"journal.append", func() error {
			return benchJournal.Revoke(nextJournalID(), "bench")
		}},
		{"journal.append.group16", func() error {
			for range journalWriters {
				journalJobs <- struct{}{}
			}
			var err error
			for range journalWriters {
				if e := <-journalDone; e != nil {
					err = e
				}
			}
			return err
		}},
		{"sem.token.single", func() error {
			_, err := semWorld.client.IBEToken(id, ct.U)
			return err
		}},
		{"sem.token.batch64", func() error {
			_, errs, err := semWorld.client.TokenBatch(semIDs, semUs)
			if err != nil {
				return err
			}
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			return nil
		}},
	}

	report := &BaselineReport{
		Params:    pp.Name(),
		QBits:     pp.Q().BitLen(),
		PBits:     pp.P().BitLen(),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		FpKernel:  fp.Kernel(),
	}
	var m0, m1 runtime.MemStats
	for _, body := range bodies {
		// One unmeasured warm-up call so lazily-built shared state (comb
		// tables, window recodings, connection buffers) lands outside the
		// counted window — with few -quick iterations its one-time
		// allocations would otherwise smear the per-op allocs column.
		if err := body.run(); err != nil {
			return nil, fmt.Errorf("baseline %s (warm-up): %w", body.name, err)
		}
		iters, batch, passes := 0, 1, 0
		runtime.ReadMemStats(&m0)
		prevMallocs := m0.Mallocs
		minPassAllocs := math.Inf(1)
		var busy time.Duration
		for {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				if err := body.run(); err != nil {
					return nil, fmt.Errorf("baseline %s: %w", body.name, err)
				}
			}
			busy += time.Since(t0)
			iters += batch
			if batch == 1 && passes < 256 {
				// Per-pass malloc deltas: background allocation (GC workers,
				// idle servers left by earlier entries) only ever adds, so
				// for slow bodies with few total iterations the MINIMUM pass
				// is the clean per-op count — the mean smears badly at
				// -quick iteration counts. The memstats reads sit outside
				// the busy window so they cannot distort the timing column.
				passes++
				runtime.ReadMemStats(&m1)
				if d := float64(m1.Mallocs - prevMallocs); d < minPassAllocs {
					minPassAllocs = d
				}
				prevMallocs = m1.Mallocs
			}
			if busy >= minDuration && iters >= minIters {
				break
			}
			if batch == 1 && iters >= 64 && busy < minDuration/64 {
				// Sub-microsecond body (the field-layer entries): batch
				// iterations so the clock reads stop dominating the timing.
				batch = 256
			}
		}
		elapsed := busy
		runtime.ReadMemStats(&m1)
		// Rounded to 1e-4 so a stray background-runtime allocation across
		// millions of iterations does not smear the zero-alloc entries.
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(iters)
		if minPassAllocs < allocs {
			allocs = minPassAllocs
		}
		allocs = math.Round(allocs*1e4) / 1e4
		report.Entries = append(report.Entries, BaselineEntry{
			Name:        body.name,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
			Iters:       iters,
			AllocsPerOp: &allocs,
		})
	}
	if F.Limbs() == 8 {
		run := make(map[string]func() error, len(bodies))
		for _, body := range bodies {
			run[body.name] = body.run
		}
		for _, g := range kernelRatioGates {
			if g.Max.under(fp.Kernel()) == 0 {
				report.Ratios = append(report.Ratios, BaselineRatio{Name: g.name(), NA: true})
				continue
			}
			v, err := measureRatio(run[g.Num], run[g.Den], g.Rounds, g.Burst, g.DenBurst)
			if err != nil {
				return nil, fmt.Errorf("baseline %s: %w", g.name(), err)
			}
			report.Ratios = append(report.Ratios, BaselineRatio{Name: g.name(), Value: math.Round(v*1e3) / 1e3})
		}
	}
	return report, nil
}

// baselineSEM is the minimal live SEM deployment behind the sem.token.*
// baseline entries: one loopback daemon serving the mediated-IBE token op
// for a single enrolled identity, and one connected client.
type baselineSEM struct {
	servers loopback
	client  *sem.Pool
}

func newBaselineSEM(pp *pairing.Params, id string) (*baselineSEM, error) {
	reg := core.NewRegistry()
	mpkg, err := core.NewMediatedPKG(rand.Reader, pp, 32)
	if err != nil {
		return nil, err
	}
	ibeSEM := core.NewIBESEM(mpkg.Public(), reg)
	_, semHalf, err := mpkg.SplitExtract(rand.Reader, id)
	if err != nil {
		return nil, err
	}
	ibeSEM.Register(semHalf)
	srv, err := sem.NewServer(sem.Config{Registry: reg, IBE: ibeSEM, Pairing: pp})
	if err != nil {
		return nil, err
	}
	b := &baselineSEM{}
	addr, err := b.servers.serve(srv)
	if err == nil {
		b.client, err = sem.Dial(addr, pp, 10*time.Second)
	}
	if err != nil {
		_ = b.servers.close()
		return nil, err
	}
	return b, nil
}

func (b *baselineSEM) close() {
	_ = b.client.Close()
	_ = b.servers.close()
}

// baselineCluster is the live (t, n) cluster behind the cluster.decrypt.*
// entries: every player's server on loopback, and a second topology in which
// player 2's address is one no server can listen on.
type baselineCluster struct {
	params                  *core.ThresholdParams
	players                 loopback
	addrs, addrsPlayer2Down []string
}

func newBaselineCluster(params *core.ThresholdParams, shares []*core.KeyShare) (_ *baselineCluster, err error) {
	b := &baselineCluster{params: params}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	for i, ks := range shares {
		p, err := cluster.NewPlayerServer(params, i+1)
		if err != nil {
			return nil, err
		}
		if err := p.Install(ks); err != nil {
			return nil, err
		}
		addr, err := b.players.serve(p)
		if err != nil {
			return nil, err
		}
		b.addrs = append(b.addrs, addr)
	}
	// Port 0 is refused at once on a dial, and no listener can ever hold it.
	b.addrsPlayer2Down = append([]string(nil), b.addrs...)
	b.addrsPlayer2Down[1] = "127.0.0.1:0"
	return b, nil
}

// decrypt is one decryption by a new recombiner over addrs, connections
// included. A new recombiner's first choices are players 1..t, which is what
// makes the two entries differ in exactly one thing: with player 2 down,
// every decryption needs the second round.
func (b *baselineCluster) decrypt(addrs []string, id string, ct *bf.BasicCiphertext) error {
	rec, err := cluster.NewRecombiner(b.params, addrs, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = rec.Close() }()
	_, _, err = rec.Decrypt(id, ct)
	return err
}

func (b *baselineCluster) close() { _ = b.players.close() }

// JSON renders the report with stable formatting for committing to the repo.
func (r *BaselineReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
