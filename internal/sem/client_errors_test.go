package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// TestClientCloseIdempotent covers the close contract of a dialed client:
// Close is idempotent, and every op after Close reports ErrClientClosed
// instead of a raw net error.
func TestClientCloseIdempotent(t *testing.T) {
	f := newFixture(t)
	c := f.client
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.IBEToken(testID, f.pp.Generator()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("IBEToken after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := c.many(opIBEToken, []string{testID}, [][]byte{f.pp.Generator().Marshal()}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("many after Close = %v, want ErrClientClosed", err)
	}
}

// TestRemoteErrorClassification checks the failover predicate the sharded
// router keys on: every server-answered error matches ErrRemote (failover
// would only repeat it elsewhere), while the typed sentinels keep matching
// too, and transport-level errors do not match ErrRemote.
func TestRemoteErrorClassification(t *testing.T) {
	f := newFixture(t)
	c := f.client

	if err := c.Revoke(testID, "test"); err != nil {
		t.Fatal(err)
	}
	_, err := c.IBEToken(testID, f.pp.Generator())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("revoked error %v does not match ErrRemote", err)
	}
	if !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("revoked error %v lost its typed sentinel", err)
	}
	if err := c.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}

	_, err = c.IBEToken("nobody@example.com", f.pp.Generator())
	if !errors.Is(err, ErrRemote) || !errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("unknown-identity error %v must match both ErrRemote and ErrUnknownIdentity", err)
	}

	// A malformed payload draws a bad-request refusal: remote, but no typed
	// sentinel.
	_, err = c.one(opIBEToken, testID, []byte("not a point"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("bad-request error %v does not match ErrRemote", err)
	}
	if errors.Is(err, core.ErrRevoked) || errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("bad-request error %v must not match a typed sentinel", err)
	}

	// Transport failure: server torn down under the client. Must NOT match
	// ErrRemote (this is exactly the case the router fails over on) and, as
	// the close was not ours, must not be ErrClientClosed either.
	_ = f.server.Close()
	if err := c.Ping(); err == nil || errors.Is(err, ErrRemote) || errors.Is(err, ErrClientClosed) {
		t.Fatalf("transport error %v misclassified", err)
	}
}

// answering dials a scripted SEM that answers every item of every frame
// with answer(slot).
func answering(t *testing.T, pp *pairing.Params, answer func(slot int) []byte) *Pool {
	t.Helper()
	addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
		answerFrames(conn, func(_ byte, items []wire.ReqItem) []wire.RespItem {
			resp := make([]wire.RespItem, len(items))
			for i := range resp {
				resp[i] = wire.RespItem{Status: statusOK, Data: answer(i)}
			}
			return resp
		})
	})
	return dialTCP(t, addr, pp)
}

// TestStatusRefusesMalformedAnswers: a status answer is one byte, 0 or 1.
// Anything else is a protocol error, never "not revoked".
func TestStatusRefusesMalformedAnswers(t *testing.T) {
	for _, tc := range []struct {
		answer  []byte
		revoked bool
		err     error
	}{
		{answer: []byte{0}},
		{answer: []byte{1}, revoked: true},
		{answer: []byte{}, err: ErrProtocol},
		{answer: []byte{1, 0}, err: ErrProtocol},
		{answer: []byte{2}, err: ErrProtocol},
	} {
		c := answering(t, nil, func(int) []byte { return tc.answer })
		revoked, err := c.Status(testID)
		if revoked != tc.revoked || !errors.Is(err, tc.err) || (tc.err == nil) != (err == nil) {
			t.Errorf("answer %x: Status = %v, %v; want %v, %v", tc.answer, revoked, err, tc.revoked, tc.err)
		}
	}
}

// TestBatchFormsRefuseOneLyingSlot scripts a SEM that answers every slot of
// a batch honestly except slot 1, in each batch form that returns values:
// exactly that slot must fail with ErrProtocol and a nil result, and every
// other slot must validate — each answer is checked, and in its own slot.
func TestBatchFormsRefuseOneLyingSlot(t *testing.T) {
	f := newThresholdFixture(t)
	pp := f.pp
	honestShare, err := f.srv.thresholdShare(testID, f.u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ux, err := wire.UnmarshalPairingX(pp.Curve(), f.u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	token, err := pp.PairX(pp.Generator(), ux)
	if err != nil {
		t.Fatal(err)
	}
	gt, _, _ := shareWidths(pp)
	outsider := pp.Field().NewElement(big.NewInt(2), big.NewInt(3)).Bytes()
	tamperedW1 := bytes.Clone(honestShare)
	copy(tamperedW1[gt:], outsider)
	pub := &mrsa.PublicKey{N: big.NewInt(1000003), E: big.NewInt(3)}
	ids := []string{testID, testID, testID}
	us := []*curve.Point{f.u, f.u, f.u}
	cts := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(4)}

	for _, tc := range []struct {
		name        string
		honest, lie []byte
		run         func(*Pool) ([]bool, []error, error)
	}{
		{"token outside GT", token.Bytes(), outsider,
			func(c *Pool) ([]bool, []error, error) { return answered(c.TokenBatch(ids, us)) }},
		{"half-signature of cofactor order", pp.Generator().Marshal(), curvetest.RandomCofactorPoint(pp.Curve()).Marshal(),
			func(c *Pool) ([]bool, []error, error) { return answered(c.GDHHalfSignBatch(ids, us)) }},
		{"RSA half not below n", big.NewInt(5).Bytes(), pub.N.Bytes(),
			func(c *Pool) ([]bool, []error, error) { return answered(c.RSAHalfDecryptBatch(pub, ids, cts)) }},
		{"share with W1 outside GT", honestShare, tamperedW1,
			func(c *Pool) ([]bool, []error, error) { return answeredShares(c.ThresholdShareBatch(ids, us)) }},
		{"share one byte short", honestShare, honestShare[:len(honestShare)-1],
			func(c *Pool) ([]bool, []error, error) { return answeredShares(c.ThresholdShareBatch(ids, us)) }},
	} {
		c := answering(t, pp, func(slot int) []byte {
			if slot == 1 {
				return tc.lie
			}
			return tc.honest
		})
		got, errs, err := tc.run(c)
		if err != nil || len(got) != 3 || len(errs) != 3 {
			t.Fatalf("%s: %d results, %d errs, err %v", tc.name, len(got), len(errs), err)
		}
		for i := range got {
			if lying := i == 1; got[i] == lying || (errs[i] != nil) != lying || (lying && !errors.Is(errs[i], ErrProtocol)) {
				t.Errorf("%s: slot %d: result present %v, err %v", tc.name, i, got[i], errs[i])
			}
		}
	}
}

// answered reports which slots of a batch came back with a result.
func answered[T comparable](results []T, errs []error, err error) ([]bool, []error, error) {
	var zero T
	got := make([]bool, len(results))
	for i, r := range results {
		got[i] = r != zero
	}
	return got, errs, err
}

// answeredShares is answered for threshold share replies: a slot came back
// with a result when its reply carries a share.
func answeredShares(replies []ShareReply, errs []error, err error) ([]bool, []error, error) {
	got := make([]bool, len(replies))
	for i, r := range replies {
		got[i] = r.Share != nil
	}
	return got, errs, err
}

// pointOps is every client op that sends a point, as *Pool and
// *ShardedClient both offer it.
type pointOps interface {
	IBEToken(id string, u *curve.Point) (*pairing.GT, error)
	TokenBatch(ids []string, us []*curve.Point) ([]*pairing.GT, []error, error)
	GDHHalfSign(id string, h *curve.Point) (*curve.Point, error)
	GDHHalfSignBatch(ids []string, hs []*curve.Point) ([]*curve.Point, []error, error)
	ThresholdShare(id string, u *curve.Point) (*core.DecryptionShare, error)
	ThresholdShareBatch(ids []string, us []*curve.Point) ([]ShareReply, []error, error)
	RegisterIBE(id string, d *curve.Point) error
	RegisterIBEBatch(ids []string, ds []*curve.Point) ([]error, error)
}

// TestPointOpsRefuseNilAndO: every point-taking op of both clients, given
// nil or O — alone, or in one slot of a batch whose other slot is a good
// point — returns ErrBadOperand without panicking and sends nothing.
func TestPointOpsRefuseNilAndO(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Int64
	addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
		answerFrames(conn, func(_ byte, items []wire.ReqItem) []wire.RespItem {
			frames.Add(1)
			return make([]wire.RespItem, len(items))
		})
	})
	pool := dialTCP(t, addr, pp)
	sharded, err := NewShardedClient([]string{addr}, pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sharded.Close() })

	good := pp.Generator()
	ids := []string{testID, testID}
	ops := map[string]func(c pointOps, p *curve.Point) error{
		"IBEToken": func(c pointOps, p *curve.Point) error { _, err := c.IBEToken(testID, p); return err },
		"TokenBatch": func(c pointOps, p *curve.Point) error {
			_, _, err := c.TokenBatch(ids, []*curve.Point{good, p})
			return err
		},
		"GDHHalfSign": func(c pointOps, p *curve.Point) error { _, err := c.GDHHalfSign(testID, p); return err },
		"GDHHalfSignBatch": func(c pointOps, p *curve.Point) error {
			_, _, err := c.GDHHalfSignBatch(ids, []*curve.Point{good, p})
			return err
		},
		"ThresholdShare": func(c pointOps, p *curve.Point) error { _, err := c.ThresholdShare(testID, p); return err },
		"ThresholdShareBatch": func(c pointOps, p *curve.Point) error {
			_, _, err := c.ThresholdShareBatch(ids, []*curve.Point{good, p})
			return err
		},
		"RegisterIBE": func(c pointOps, p *curve.Point) error { return c.RegisterIBE(testID, p) },
		"RegisterIBEBatch": func(c pointOps, p *curve.Point) error {
			_, err := c.RegisterIBEBatch(ids, []*curve.Point{good, p})
			return err
		},
	}
	for client, c := range map[string]pointOps{"Pool": pool, "ShardedClient": sharded} {
		for name, op := range ops {
			for what, p := range map[string]*curve.Point{"nil": nil, "O": pp.Curve().Infinity()} {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return op(c, p)
				}()
				if !errors.Is(err, ErrBadOperand) {
					t.Errorf("%s.%s(%s) = %v, want ErrBadOperand", client, name, what, err)
				}
			}
		}
	}
	if n := frames.Load(); n != 0 {
		t.Errorf("%d frames reached the SEM", n)
	}
}

// TestClientResolvesTheToken: the SEM answers ibe_token from U's abscissa,
// and IBEToken and TokenBatch, through a Pool and a ShardedClient, resolve
// it with U's y into exactly Pair(d_sem, U) — for U in G1 and for U + T with
// a cofactor component — and into its inverse for −U, whose abscissa the SEM
// cannot tell from U's.
func TestClientResolvesTheToken(t *testing.T) {
	f := newFixture(t)
	pp := f.pp
	const id = "resolve@example.com"
	d := pp.GeneratorMul(big.NewInt(0x5eed))
	if err := f.client.RegisterIBE(id, d); err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedClient([]string{f.addr}, pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sharded.Close() })
	uq, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	us := []*curve.Point{uq, uq.Add(curvetest.RandomCofactorPoint(pp.Curve())), uq.Neg()}
	for client, c := range map[string]pointOps{"Pool": f.client, "ShardedClient": sharded} {
		batch, errs, err := c.TokenBatch([]string{id, id, id}, us)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range us {
			want, err := pp.Pair(d, u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.IBEToken(id, u)
			if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: IBEToken(U %d) = %v, %v; want Pair(d_sem, U)", client, i, got, err)
			}
			if errs[i] != nil || !bytes.Equal(batch[i].Bytes(), want.Bytes()) {
				t.Errorf("%s: TokenBatch slot %d = %v, %v; want Pair(d_sem, U)", client, i, batch[i], errs[i])
			}
		}
	}
}
