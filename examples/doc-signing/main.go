// Document signing: the mediated GDH signature of the paper's Section 5,
// side by side with the mediated RSA baseline.
//
// A contract is signed with SEM cooperation under both schemes; the demo
// prints the SEM→user traffic (the paper's 160-vs-1024-bit comparison),
// shows that verifiers need no revocation infrastructure, and that firing
// the signer stops both pens at once through the shared registry.
//
// Run: go run ./examples/doc-signing
package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log"

	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/mrsa"
	"repro/internal/pairing"
)

const signer = "cfo@example.com"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	pp, err := pairing.Fast()
	if err != nil {
		return err
	}
	contract := []byte("Purchase agreement: 500 units at 12.50 EUR, net 30.")

	// One registry guards both schemes: a single revocation disarms the
	// signer everywhere.
	reg := core.NewRegistry()

	// --- Mediated GDH setup (trusted authority + SEM) ---
	ta := core.NewGDHAuthority(pp)
	gdhSEM := core.NewGDHSEM(pp, reg)
	gdhKey, gdhSEMHalf, err := ta.Keygen(rand.Reader, signer)
	if err != nil {
		return err
	}
	gdhSEM.Register(gdhSEMHalf)

	// --- Mediated RSA setup (1024-bit, the paper's baseline) ---
	ibpkg, err := mrsa.FixedPaperPKG()
	if err != nil {
		return err
	}
	rsaSEM := core.NewExpSEM(reg)
	rsaUser, rsaSEMHalf, err := ibpkg.IssueHalves(rand.Reader, signer)
	if err != nil {
		return err
	}
	rsaSEM.Register(signer, rsaSEMHalf)
	rsaPub := ibpkg.IdentityPublicKey(signer)

	// --- Sign the contract under both schemes ---
	h, err := bls.HashMessage(pp, contract)
	if err != nil {
		return err
	}
	gdhToken, err := gdhSEM.HalfSign(signer, h)
	if err != nil {
		return err
	}
	gdhSig, err := core.UserSign(gdhKey, h, gdhToken)
	if err != nil {
		return err
	}
	fmt.Printf("mediated GDH: SEM sent %4d bits; final signature %4d bits\n",
		len(gdhToken.Marshal())*8, len(gdhSig.Marshal())*8)

	rsaToken, err := rsaSEM.HalfSignRSA(signer, contract)
	if err != nil {
		return err
	}
	rsaSig, err := mrsa.CombineSignature(rsaPub, rsaUser, contract, rsaToken)
	if err != nil {
		return err
	}
	fmt.Printf("mediated RSA: SEM sent %4d bits; final signature %4d bits\n",
		len(rsaToken.Bytes())*8, len(rsaSig)*8) //cryptolint:public (only the token length is printed)
	fmt.Println("  → the paper's Section 5 claim: the GDH token is a fraction of the RSA one")

	// --- Verification needs only public data. Crucially, a verifier who
	// accepts a mediated signature KNOWS the key was unrevoked when it was
	// made — the SEM would not have cooperated otherwise. ---
	if err := gdhKey.Public.Verify(contract, gdhSig); err != nil {
		return err
	}
	if err := rsaPub.Verify(contract, rsaSig); err != nil {
		return err
	}
	fmt.Println("both signatures verify; no CRL/OCSP consulted by the verifier")

	// Tampered contract fails.
	tampered := append([]byte{}, contract...)
	tampered[0] ^= 1
	if err := gdhKey.Public.Verify(tampered, gdhSig); err == nil {
		return errors.New("tampered contract verified")
	}
	fmt.Println("tampered contract rejected")

	// --- The CFO departs: one revocation, both schemes disarmed ---
	reg.Revoke(signer, "separation agreement signed 2026-07-06")
	if _, err := gdhSEM.HalfSign(signer, h); !errors.Is(err, core.ErrRevoked) {
		return fmt.Errorf("GDH SEM still cooperates: %v", err)
	}
	if _, err := rsaSEM.HalfSignRSA(signer, contract); !errors.Is(err, core.ErrRevoked) {
		return fmt.Errorf("RSA SEM still cooperates: %v", err)
	}
	fmt.Println("signer revoked: neither scheme will produce another signature")

	// Old signatures remain verifiable — revocation is about new
	// operations, exactly the semantics the SEM architecture provides.
	if err := gdhKey.Public.Verify(contract, gdhSig); err != nil {
		return err
	}
	fmt.Println("existing signatures remain valid and verifiable")
	return nil
}
