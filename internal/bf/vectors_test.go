package bf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/pairing"
)

// TestEncryptVectors pins FullIdent and BasicIdent ciphertexts for a fixed
// master key and a fixed randomness stream, at every parameter set, for a
// first message to a recipient (hashed onto the curve, paired through
// P_pub's program) and a later one (the cached GT comb; no hash): how the
// sender gets to ê(P_pub, Q_ID)^r may change, the bytes may not. Recorded at
// the commit before the hash moved behind the recipient cache; the first
// messages also decrypt, and cost one hash each, the later ones none.
func TestEncryptVectors(t *testing.T) {
	want := map[string]string{
		"toy":         "3b9dee65c5e1a027fba2197321cf59585a9aefca502bb4c7067f024299b1419a",
		"fast":        "38c09670efab835faf0802482b1607e3bddd95862203d797aa72604f4c8c872a",
		"paper":       "c4a6386503db630352458626227dd047af4695c5f629c78cf0a3737ba3a360f3",
		"paper_dense": "d5b8bfc558ddb022487a32db922559049ecef76085ff475bbaea43c623ee3532",
	}
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := SetupWithMaster(pp, big.NewInt(0x5eed), msgLen)
		if err != nil {
			t.Fatal(err)
		}
		pub := pkg.Public()
		rng := mrand.New(mrand.NewSource(24))
		msg := bytes.Repeat([]byte{0xc3}, msgLen)
		h := sha256.New()
		for round, wantHashes := range []uint64{1, 0} {
			for _, id := range []string{"alice@example.com", "bob@example.com"} {
				before := curve.HashToPointCalls()
				full, err := pub.Encrypt(rng, id, msg)
				if err != nil {
					t.Fatal(err)
				}
				if n := curve.HashToPointCalls() - before; n != wantHashes {
					t.Errorf("%s: message %d to %s hashed the identity %d times, want %d", name, round+1, id, n, wantHashes)
				}
				basic, err := pub.EncryptBasic(rng, id, msg)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(full.Marshal())
				h.Write(basic.Marshal())
				key, err := pkg.Extract(id)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := pub.Decrypt(key, full); err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("%s: message %d to %s does not decrypt: %x, %v", name, round+1, id, got, err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: ciphertext digest %s, want %s", name, got, want[name])
		}
	}
}
