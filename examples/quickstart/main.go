// Quickstart: the mediated Boneh-Franklin IBE in one file.
//
// It walks the paper's Section 4 lifecycle in-process: PKG setup, split key
// extraction, identity based encryption (no certificate lookup!), SEM-aided
// decryption, and instant revocation.
//
// Run: go run ./examples/quickstart
package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pairing"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Setup. The PKG picks the pairing groups and a master key.
	// "fast" = 128-bit group order over a 256-bit field; use pairing.Paper()
	// for the sizes the paper compares against 1024-bit RSA.
	pp, err := pairing.Fast()
	if err != nil {
		return err
	}
	const msgLen = 32
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		return err
	}
	fmt.Println("PKG ready: P_pub published, master key kept secret")

	// 2. The SEM comes online, sharing a revocation registry.
	sem := core.NewIBESEM(pkg.Public(), core.NewRegistry())

	// 3. Enroll Bob: the PKG splits d_bob = d_user + d_sem; Bob gets one
	// half, the SEM the other. The PKG can now go offline.
	const bob = "bob@example.com"
	bobKey, semHalf, err := pkg.SplitExtract(rand.Reader, bob)
	if err != nil {
		return err
	}
	sem.Register(semHalf)
	fmt.Printf("enrolled %s (user half %d bytes, SEM half %d bytes)\n",
		bob, len(bobKey.D.Marshal()), len(semHalf.D.Marshal()))

	// 4. Alice encrypts to the *identity string* — no certificate, no
	// revocation check, nothing but the public parameters.
	msg := []byte("lunch at noon? bring the pairing")
	padded := make([]byte, msgLen)
	copy(padded, msg)
	ct, err := pkg.Public().Encrypt(rand.Reader, bob, padded)
	if err != nil {
		return err
	}
	fmt.Printf("Alice encrypted %d plaintext bytes into a %d-byte ciphertext\n",
		len(msg), len(ct.Marshal()))

	// 5. Bob decrypts: he asks the SEM for the message-specific token
	// ê(U, d_sem), pairs his own half, and opens the ciphertext.
	plain, err := core.DecryptIBE(pkg.Public(), bobKey, ct, sem.TokenFor)
	if err != nil {
		return err
	}
	fmt.Printf("Bob decrypted: %q\n", plain[:len(msg)]) //cryptolint:public (the demo prints the recovered plaintext by design)

	// 6. Bob leaves the company. One call — no CRL, no key reissue.
	sem.Registry().Revoke(bob, "left the company")
	fmt.Println("admin revoked bob@example.com")

	// 7. The very next decryption attempt fails: the SEM refuses the token.
	_, err = core.DecryptIBE(pkg.Public(), bobKey, ct, sem.TokenFor)
	switch {
	case errors.Is(err, core.ErrRevoked):
		fmt.Println("Bob can no longer decrypt: ", err)
	case err == nil:
		return errors.New("revocation did not take effect")
	default:
		return err
	}

	// 8. Alice never noticed: encryption still works identically — the
	// message will simply stay sealed unless Bob is reinstated.
	if _, err := pkg.Public().Encrypt(rand.Reader, bob, padded); err != nil {
		return err
	}
	fmt.Println("senders are oblivious to revocation — that is the SEM architecture")
	return nil
}
