package core_test

import (
	"crypto/rand"
	"fmt"

	"repro/internal/core"
	"repro/internal/pairing"
)

// ExampleDecryptIBE shows the complete mediated-IBE lifecycle: setup, split
// extraction, encryption to a bare identity string, SEM-aided decryption,
// and instant revocation.
func ExampleDecryptIBE() {
	pp, err := pairing.Fast()
	if err != nil {
		fmt.Println(err)
		return
	}
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, 32)
	if err != nil {
		fmt.Println(err)
		return
	}
	sem := core.NewIBESEM(pkg.Public(), core.NewRegistry())

	userHalf, semHalf, err := pkg.SplitExtract(rand.Reader, "bob@example.com")
	if err != nil {
		fmt.Println(err)
		return
	}
	sem.Register(semHalf)

	msg := make([]byte, 32)
	copy(msg, "hello, mediated world")
	ct, err := pkg.Public().Encrypt(rand.Reader, "bob@example.com", msg)
	if err != nil {
		fmt.Println(err)
		return
	}
	plain, err := core.DecryptIBE(pkg.Public(), userHalf, ct, sem.TokenFor)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(string(plain[:21]))

	sem.Registry().Revoke("bob@example.com", "example over")
	if _, err := core.DecryptIBE(pkg.Public(), userHalf, ct, sem.TokenFor); err != nil {
		fmt.Println("revoked: decryption refused")
	}
	// Output:
	// hello, mediated world
	// revoked: decryption refused
}

// ExampleSignGDH shows mediated GDH signing: the SEM contributes its half, the
// user completes and verifies the signature.
func ExampleSignGDH() {
	pp, err := pairing.Fast()
	if err != nil {
		fmt.Println(err)
		return
	}
	ta := core.NewGDHAuthority(pp)
	sem := core.NewGDHSEM(pp, core.NewRegistry())
	key, semHalf, err := ta.Keygen(rand.Reader, "alice@example.com")
	if err != nil {
		fmt.Println(err)
		return
	}
	sem.Register(semHalf)

	sig, err := core.SignGDH(key, []byte("the document"), sem.HalfSign)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := key.Public.Verify([]byte("the document"), sig); err == nil {
		fmt.Println("signature verifies")
	}
	// Output:
	// signature verifies
}
