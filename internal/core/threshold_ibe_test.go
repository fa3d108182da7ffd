package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/pairing"
)

func thresholdFixture(t *testing.T, tt, n int) *ThresholdPKG {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := SetupThreshold(rand.Reader, pp, msgLen, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func issueShares(t *testing.T, pkg *ThresholdPKG, id string) []*KeyShare {
	t.Helper()
	shares := make([]*KeyShare, pkg.Params().N)
	for i := 1; i <= pkg.Params().N; i++ {
		ks, err := pkg.ExtractShare(id, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := pkg.Params().VerifyKeyShare(ks); err != nil {
			t.Fatalf("honest key share %d rejected: %v", i, err)
		}
		shares[i-1] = ks
	}
	return shares
}

func TestSetupThresholdValidation(t *testing.T) {
	pp, _ := pairing.Toy()
	if _, err := SetupThreshold(rand.Reader, pp, msgLen, 0, 3); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := SetupThreshold(rand.Reader, pp, msgLen, 4, 3); err == nil {
		t.Error("t>n accepted")
	}
}

func TestVerifySetupSubsets(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	for _, subset := range [][]int{{1, 2, 3}, {1, 4, 5}, {2, 3, 5}} {
		if err := p.VerifySetup(subset); err != nil {
			t.Errorf("subset %v: %v", subset, err)
		}
	}
	if err := p.VerifySetup([]int{0, 1, 2}); err == nil {
		t.Error("out-of-range subset accepted")
	}
}

func TestThresholdDecryption(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "alice@example.com"
	keyShares := issueShares(t, pkg, id)

	msg := bytes.Repeat([]byte{0xC4}, msgLen)
	c, err := p.Public.EncryptBasic(rand.Reader, id, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Players 2, 4, 5 contribute.
	var shares []*DecryptionShare
	for _, i := range []int{2, 4, 5} {
		shares = append(shares, mustShare(t, p, keyShares[i-1], c.U))
	}
	got, err := p.Recombine(shares, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recombined %x, want %x", got, msg)
	}
}

func TestThresholdMatchesCentralizedDecryption(t *testing.T) {
	// g from share recombination must equal ê(U, s·Q_ID): decrypting with a
	// centrally-extracted key gives the same plaintext.
	pkg := thresholdFixture(t, 2, 3)
	p := pkg.Params()
	id := "bob@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{0xD2}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	shares := []*DecryptionShare{
		mustShare(t, p, keyShares[0], c.U),
		mustShare(t, p, keyShares[2], c.U),
	}
	viaThreshold, err := p.Recombine(shares, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaThreshold, msg) {
		t.Fatal("threshold decryption wrong")
	}
}

func TestFewerThanTSharesFail(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "x@x"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{1}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)
	shares := []*DecryptionShare{
		mustShare(t, p, keyShares[0], c.U),
		mustShare(t, p, keyShares[1], c.U),
	}
	if _, err := p.Recombine(shares, c); !errors.Is(err, ErrNotEnoughValidShares) {
		t.Fatalf("t−1 shares recombined: %v", err)
	}
}

func TestCorruptKeyShareDetected(t *testing.T) {
	pkg := thresholdFixture(t, 2, 3)
	p := pkg.Params()
	ks, _ := pkg.ExtractShare("victim@x", 1)
	ks.D = ks.D.Double() // PKG "mistake"
	if err := p.VerifyKeyShare(ks); !errors.Is(err, ErrShareVerification) {
		t.Fatalf("corrupt key share accepted: %v", err)
	}
	ks2, _ := pkg.ExtractShare("victim@x", 2)
	ks2.Index = 1 // claim a different slot
	if err := p.VerifyKeyShare(ks2); !errors.Is(err, ErrShareVerification) {
		t.Fatalf("misattributed key share accepted: %v", err)
	}
	bad := &KeyShare{ID: "victim@x", Index: 99, D: ks.D}
	if err := p.VerifyKeyShare(bad); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestRobustnessProofs(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "carol@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{0xEE}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	for _, i := range []int{1, 3, 5} {
		ds, err := p.ComputeShareWithProof(rand.Reader, keyShares[i-1], c.U)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.VerifyShareProof(id, c.U, ds); err != nil {
			t.Fatalf("honest proof %d rejected: %v", i, err)
		}
	}
}

func TestRobustnessProofSoundness(t *testing.T) {
	pkg := thresholdFixture(t, 2, 3)
	p := pkg.Params()
	id := "dave@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{5}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	ds, _ := p.ComputeShareWithProof(rand.Reader, keyShares[0], c.U)

	// Corrupted share value with intact proof must fail.
	badShare := &DecryptionShare{Index: ds.Index, G: ds.G.Mul(ds.G), Proof: ds.Proof}
	if err := p.VerifyShareProof(id, c.U, badShare); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("forged share value accepted: %v", err)
	}
	// Proof from one player claimed by another index must fail.
	wrongIdx := &DecryptionShare{Index: 2, G: ds.G, Proof: ds.Proof}
	if err := p.VerifyShareProof(id, c.U, wrongIdx); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("reindexed proof accepted: %v", err)
	}
	// Missing proof.
	if err := p.VerifyShareProof(id, c.U, &DecryptionShare{Index: 1, G: ds.G}); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("missing proof accepted: %v", err)
	}
	// Proof for a different ciphertext (different U) must fail.
	c2, _ := p.Public.EncryptBasic(rand.Reader, id, msg)
	if err := p.VerifyShareProof(id, c2.U, ds); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("proof transplanted to another ciphertext accepted: %v", err)
	}
}

func TestRobustDecryptRejectsByzantinePlayer(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "eve-target@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{0x77}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	var shares []*DecryptionShare
	for _, i := range []int{1, 2, 3, 4} {
		ds, err := p.ComputeShareWithProof(rand.Reader, keyShares[i-1], c.U)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, ds)
	}
	// Player 2 lies about its share (keeps its old proof).
	shares[1] = &DecryptionShare{Index: 2, G: shares[1].G.Mul(shares[1].G), Proof: shares[1].Proof}

	got, rejected, err := p.RobustDecrypt(id, shares, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 1 || rejected[0] != 2 {
		t.Fatalf("rejected = %v, want [2]", rejected)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("robust decryption produced wrong plaintext")
	}
}

// TestRobustDecryptCountsDistinctPlayers: player 2 answers with a copy of
// player 1's share, index and proof intact. Both copies verify, but they
// are one point of the polynomial: the recombiner must count distinct
// indices toward t, turn the surplus copy away and decrypt from the four
// players it really heard from.
func TestRobustDecryptCountsDistinctPlayers(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "relayed@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{0x78}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	shares := make([]*DecryptionShare, p.N)
	for i, ks := range keyShares {
		ds, err := p.ComputeShareWithProof(rand.Reader, ks, c.U)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = ds
	}
	shares[1] = shares[0]

	got, rejected, err := p.RobustDecrypt(id, shares, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("robust decryption produced wrong plaintext")
	}
	if len(rejected) != 1 || rejected[0] != 1 {
		t.Fatalf("rejected = %v, want [1] (the surplus copy of share 1)", rejected)
	}

	// With the copy standing in for two of only three answers there are two
	// players, not three.
	if _, _, err := p.RobustDecrypt(id, shares[:3], c); !errors.Is(err, ErrNotEnoughValidShares) {
		t.Fatalf("two distinct players of t = 3 decrypted: %v", err)
	}
}

func TestRobustDecryptFailsBelowThreshold(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "x@x"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{1}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	var shares []*DecryptionShare
	for _, i := range []int{1, 2, 3} {
		ds, _ := p.ComputeShareWithProof(rand.Reader, keyShares[i-1], c.U)
		shares = append(shares, ds)
	}
	shares[0].G = shares[0].G.Mul(shares[0].G) // now only 2 valid
	if _, _, err := p.RobustDecrypt(id, shares, c); !errors.Is(err, ErrNotEnoughValidShares) {
		t.Fatalf("robust decrypt below threshold succeeded: %v", err)
	}
}

func TestRecoverShare(t *testing.T) {
	// Recover dishonest player 2's decryption share from players {1, 3, 4}
	// and use it in a recombination.
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "frank@example.com"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{0x3C}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)

	honest := []*DecryptionShare{
		mustShare(t, p, keyShares[0], c.U),
		mustShare(t, p, keyShares[2], c.U),
		mustShare(t, p, keyShares[3], c.U),
	}
	recovered, err := p.RecoverShare(honest, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustShare(t, p, keyShares[1], c.U)
	if !recovered.G.Equal(direct.G) {
		t.Fatal("recovered share differs from the player's true share")
	}
	// The recovered share recombines correctly with others.
	got, err := p.Recombine([]*DecryptionShare{honest[0], honest[1], recovered}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("recombination with recovered share failed")
	}
}

func TestRecoverShareErrors(t *testing.T) {
	pkg := thresholdFixture(t, 3, 5)
	p := pkg.Params()
	id := "x@x"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{1}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)
	shares := []*DecryptionShare{
		mustShare(t, p, keyShares[0], c.U),
		mustShare(t, p, keyShares[1], c.U),
		mustShare(t, p, keyShares[2], c.U),
	}
	if _, err := p.RecoverShare(shares[:2], 4); !errors.Is(err, ErrNotEnoughValidShares) {
		t.Fatalf("recovery from t−1 shares: %v", err)
	}
	if _, err := p.RecoverShare(shares, 2); err == nil {
		t.Fatal("recovering an already-present share accepted")
	}
}

func TestDuplicateDecryptionShares(t *testing.T) {
	pkg := thresholdFixture(t, 2, 3)
	p := pkg.Params()
	id := "x@x"
	keyShares := issueShares(t, pkg, id)
	msg := bytes.Repeat([]byte{1}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)
	s := mustShare(t, p, keyShares[0], c.U)
	if _, err := p.Recombine([]*DecryptionShare{s, s}, c); err == nil {
		t.Fatal("duplicate shares recombined")
	}
}

func TestExtractShareIndexValidation(t *testing.T) {
	pkg := thresholdFixture(t, 2, 3)
	if _, err := pkg.ExtractShare("x@x", 0); err == nil {
		t.Error("index 0 accepted")
	}
	if _, err := pkg.ExtractShare("x@x", 4); err == nil {
		t.Error("index n+1 accepted")
	}
}

func TestThresholdOneOfOne(t *testing.T) {
	// (1,1) degenerates to plain BasicIdent.
	pkg := thresholdFixture(t, 1, 1)
	p := pkg.Params()
	id := "solo@x"
	ks, _ := pkg.ExtractShare(id, 1)
	if err := p.VerifyKeyShare(ks); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xF0}, msgLen)
	c, _ := p.Public.EncryptBasic(rand.Reader, id, msg)
	got, err := p.Recombine([]*DecryptionShare{mustShare(t, p, ks, c.U)}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("(1,1) threshold decryption failed")
	}
}
