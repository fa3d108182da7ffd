package pairing

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"
)

// Known-answer regression test: ê(a·P, b·P) for fixed scalars must hash to
// these digests on every parameter set. Any change to the field, curve,
// Miller loop or final exponentiation that alters values (rather than just
// performance) trips this immediately.
var pairingKAT = map[string]string{
	"toy":         "5fd7bfbba3158cc02e53f01f13611abe330d0ba081a46c209704b0bdac524d6b",
	"fast":        "4a298319aa72e446d63c986bbf261d0b46bd73ffd61cd57c38d17409e5a268e5",
	"paper":       "78a476fcd28845e146c28db349905f9c356c3446d2802b8fdc55364edc4587fd",
	"paper_dense": "975320029754c69770f1bf0f15cb49a5b2fe357444548c71d9673f11d190b103",
}

func TestPairingKnownAnswers(t *testing.T) {
	a := big.NewInt(123456789)
	b := big.NewInt(987654321)
	for name, want := range pairingKAT {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		P := pp.Generator()
		g := mustPair(t, pp, P.ScalarMul(a), P.ScalarMul(b))
		got := fmt.Sprintf("%x", sha256.Sum256(g.Bytes()))
		if got != want {
			t.Errorf("%s: pairing KAT mismatch\n got %s\nwant %s", name, got, want)
		}
	}
}
