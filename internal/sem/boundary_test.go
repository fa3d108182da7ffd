package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// TestSubgroupCheckRelaxedOnlyForEvaluationPoints walks the op table at toy
// and paper size with the three inputs the [q]· check exists for — a point
// of cofactor order, the 2-torsion point (0, 0), and U_q + T. The two ops
// where the point is only the evaluation point of a pairing that walks the
// server's own key answer them with what the pairing's E/qE quotient says:
// ibe_token with (1, 1, Token(U_q)), threshold_share with the share of the
// G1 projection (G = 1, 1, G(U_q)) and a proof that verifies for it; both
// refuse only the identity and malformed encodings. Every other op that
// takes a point — gdh_half_sign, register_ibe — still refuses all three as
// protocol errors, register_gdh refuses them as scalars, and so does the
// client for a half-signature a server sends back. The one point a client
// takes with a cofactor component is a share proof's V, its own pairing's
// evaluation point: V_q + T for T of every small prime order and random
// T ∈ [q]E(F_p) verifies and recombines as V_q, a V of cofactor order alone
// decodes and then fails the proof check (core.ErrProofInvalid), and O or a
// non-point still fails to decode.
func TestSubgroupCheckRelaxedOnlyForEvaluationPoints(t *testing.T) {
	for _, name := range []string{"toy", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pp.Curve()
		reg := core.NewRegistry()

		pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
		if err != nil {
			t.Fatal(err)
		}
		ibe := core.NewIBESEM(pkg.Public(), reg)
		_, ibeHalf, err := pkg.SplitExtract(rand.Reader, testID)
		if err != nil {
			t.Fatal(err)
		}
		ibe.Register(ibeHalf)

		gdh := core.NewGDHSEM(pp, reg)
		_, gdhHalf, err := core.NewGDHAuthority(pp).Keygen(rand.Reader, testID)
		if err != nil {
			t.Fatal(err)
		}
		gdh.Register(gdhHalf)

		tpkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		player, err := core.NewThresholdPlayer(tpkg.Params(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := tpkg.ExtractShare(testID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := player.Install(ks); err != nil {
			t.Fatal(err)
		}

		srv, err := NewServer(Config{Registry: reg, IBE: ibe, GDH: gdh, Threshold: player, Pairing: pp, AllowRegister: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		call := func(op byte, payload []byte) ([]byte, error) {
			return opTable[op].handle(srv, testID, payload)
		}

		uq, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		tors := curvetest.RandomCofactorPoint(c)
		two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		outside := map[string]*curve.Point{"cofactor-order point": tors, "(0,0)": two, "U_q + T": uq.Add(tors)}

		// Everything but ibe_token and threshold_share keeps the [q]· check.
		for opByte, opName := range map[byte]Op{opGDHSign: OpGDHSign, opRegisterIBE: OpRegisterIBE} {
			if _, err := call(opByte, uq.Marshal()); err != nil {
				t.Fatalf("%s: %s refused a G1 point: %v", name, opName, err)
			}
			for what, pt := range outside {
				_, err := call(opByte, pt.Marshal())
				if !errors.Is(err, wire.ErrProtocol) || statusFor(err) != statusBadRequest {
					t.Errorf("%s: %s(%s): err = %v, want a wire.ErrProtocol bad request", name, opName, what, err)
				}
			}
		}
		for what, pt := range outside {
			if _, err := call(opRegisterGDH, pt.Marshal()); err == nil || statusFor(err) != statusBadRequest {
				t.Errorf("%s: register_gdh(%s): err = %v, want a bad request", name, what, err)
			}
		}
		ibe.Register(ibeHalf) // register_ibe above replaced the half with U_q

		// ibe_token: the quotient's answer, validated as the client would.
		token := func(pt *curve.Point) *pairing.GT {
			t.Helper()
			raw, err := call(opIBEToken, pt.Marshal())
			if err != nil {
				t.Fatalf("%s: ibe_token: %v", name, err)
			}
			g, err := wire.UnmarshalGT(pp, raw)
			if err != nil {
				t.Fatalf("%s: ibe_token answered outside GT: %v", name, err)
			}
			return g
		}
		want, err := pp.Pair(uq, ibeHalf.D)
		if err != nil {
			t.Fatal(err)
		}
		if got := token(uq); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: ibe_token(U_q) ≠ ê(U_q, d_sem)", name)
		}
		if got := token(outside["U_q + T"]); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: ibe_token(U_q + T) ≠ ibe_token(U_q)", name)
		}
		for _, what := range []string{"cofactor-order point", "(0,0)"} {
			if got := token(outside[what]); !got.IsOne() {
				t.Errorf("%s: ibe_token(%s) ≠ 1", name, what)
			}
		}

		// threshold_share: the share of the G1 projection with a proof for
		// it, decoded as the recombiner would.
		qid, err := bf.HashIdentityArg(pp, testID)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		cl, err := Dial(ln.Addr().String(), pp, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		share := func(pt *curve.Point) *core.DecryptionShare {
			t.Helper()
			ds, err := cl.ThresholdShare(testID, pt)
			if err != nil {
				t.Fatalf("%s: threshold_share: %v", name, err)
			}
			ds.Index = 1
			return ds
		}
		wantShare, err := pp.Pair(uq, ks.D)
		if err != nil {
			t.Fatal(err)
		}
		for what, proj := range map[string]*curve.Point{"U_q": uq, "U_q + T": uq, "cofactor-order point": nil, "(0,0)": nil} {
			pt := outside[what]
			if pt == nil {
				pt = uq
			}
			ds := share(pt)
			if proj == nil {
				if !ds.G.IsOne() {
					t.Errorf("%s: threshold_share(%s): G ≠ 1", name, what)
				}
				continue
			}
			if !bytes.Equal(ds.G.Bytes(), wantShare.Bytes()) {
				t.Errorf("%s: threshold_share(%s): G ≠ ê(U_q, d_IDi)", name, what)
			}
			if err := tpkg.Params().VerifyShareProofFor(qid, proj, ds); err != nil {
				t.Errorf("%s: threshold_share(%s): proof does not verify for U_q: %v", name, what, err)
			}
		}

		for what, enc := range map[string][]byte{
			"identity":  c.Infinity().Marshal(),
			"empty":     {},
			"truncated": uq.Marshal()[:c.CoordinateSize()],
			"bad tag":   append([]byte{0x09}, uq.Marshal()[1:]...),
		} {
			for opByte, opName := range map[byte]Op{opIBEToken: OpIBEToken, opThresholdShare: OpThresholdShare} {
				if _, err := call(opByte, enc); !errors.Is(err, wire.ErrProtocol) || statusFor(err) != statusBadRequest {
					t.Errorf("%s: %s(%s): err = %v, want a wire.ErrProtocol bad request", name, opName, what, err)
				}
			}
		}

		// The client side keeps [q]· on a GDH half-signature. A share proof's
		// V is to the client what U is to the player — the evaluation point
		// of one pairing — so it is taken as sent when it is a point of the
		// curve: V_q + T verifies as V_q does and recombines to the honest
		// plaintext, a V with no order-q part reaches the proof check and
		// fails it, and only O and non-points fail to decode.
		tparams := tpkg.Params()
		msg := bytes.Repeat([]byte{0x5a}, msgLen)
		ct, err := tparams.Public.EncryptBasic(rand.Reader, testID, msg)
		if err != nil {
			t.Fatal(err)
		}
		honest, err := call(opThresholdShare, ct.U.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		ks2, err := tpkg.ExtractShare(testID, 2)
		if err != nil {
			t.Fatal(err)
		}
		share2, err := tparams.ComputeShareWithProof(rand.Reader, ks2, ct.U)
		if err != nil {
			t.Fatal(err)
		}
		gt, point, _ := shareWidths(pp)
		honestV, err := c.Unmarshal(honest[3*gt : 3*gt+point])
		if err != nil {
			t.Fatal(err)
		}
		// answered dials a fake player that answers every share request with
		// the honest share, its V replaced by v, and every half-sign request
		// with half.
		answered := func(half, v []byte) *Pool {
			t.Helper()
			answers := map[byte][]byte{opGDHSign: half, opThresholdShare: append(append(bytes.Clone(honest[:3*gt]), v...), honest[3*gt+point:]...)}
			addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
				answerFrames(conn, func(op byte, items []wire.ReqItem) []wire.RespItem {
					resp := make([]wire.RespItem, len(items))
					for i := range resp {
						resp[i] = wire.RespItem{Status: statusOK, Data: answers[op]}
					}
					return resp
				})
			})
			cl, err := Dial(addr, pp, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Close() })
			return cl
		}
		for what, pt := range outside {
			if _, err := answered(pt.Marshal(), honestV.Marshal()).GDHHalfSign(testID, uq); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: client took a half-signature that is %s: %v", name, what, err)
			}
		}
		for i, tors := range curvetest.CofactorPoints(t, c) {
			ds, err := answered(nil, honestV.Add(tors).Marshal()).ThresholdShare(testID, ct.U)
			if err != nil {
				t.Fatalf("%s: client refused V_q + T (cofactor point %d): %v", name, i, err)
			}
			ds.Index = 1
			if ds.Proof.V.InSubgroup() {
				t.Fatalf("%s: cofactor point %d: the decoded V is in G1", name, i)
			}
			if err := tparams.VerifyShareProofFor(qid, ct.U, ds); err != nil {
				t.Errorf("%s: V_q + T (cofactor point %d) does not verify: %v", name, i, err)
			}
			got, rejected, err := tparams.RobustDecrypt(testID, []*core.DecryptionShare{ds, share2}, ct)
			if err != nil || len(rejected) != 0 || !bytes.Equal(got, msg) {
				t.Errorf("%s: recombining with V_q + T (cofactor point %d): plaintext %x, rejected %v, err %v", name, i, got, rejected, err)
			}

			ds, err = answered(nil, tors.Marshal()).ThresholdShare(testID, ct.U)
			if err != nil {
				t.Fatalf("%s: V = T (cofactor point %d) failed to decode, want it to reach verification: %v", name, i, err)
			}
			ds.Index = 1
			if err := tparams.VerifyShareProofs(qid, ct.U, []*core.DecryptionShare{ds, share2}); !errors.Is(err, core.ErrProofInvalid) {
				t.Errorf("%s: V = T (cofactor point %d): VerifyShareProofs = %v, want ErrProofInvalid", name, i, err)
			}
			if _, rejected := tparams.AcceptableShares(qid, ct.U, []*core.DecryptionShare{ds, share2}); len(rejected) != 1 || rejected[0] != 1 {
				t.Errorf("%s: V = T (cofactor point %d): rejected %v, want [1]", name, i, rejected)
			}
		}
		offCurve := honestV.Marshal()
		for {
			offCurve[len(offCurve)-1]++
			if _, err := c.Unmarshal(offCurve); err != nil {
				break
			}
		}
		for what, enc := range map[string][]byte{
			"identity":  c.Infinity().Marshal(),
			"off-curve": offCurve,
			"bad tag":   append([]byte{0x09}, honestV.Marshal()[1:]...),
			"x ≥ p":     append([]byte{0x02}, bytes.Repeat([]byte{0xff}, c.CoordinateSize())...),
		} {
			if _, err := answered(nil, enc).ThresholdShare(testID, ct.U); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: client took a proof point V that is %s: %v", name, what, err)
			}
		}
	}
}
