// Secure email: the paper's motivating workload, end to end over TCP.
//
// Alice mails Bob using only the string "bob@example.com" as the public
// key. Bob's mail client decrypts through the SEM daemon. Halfway through
// the conversation Bob's account is compromised and revoked — the next
// decryption fails instantly, while Alice's outbox needed no CRL, OCSP or
// certificate validation at any point.
//
// Run: go run ./examples/secure-email
package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/keyfile"
	"repro/internal/pairing"
	"repro/internal/sem"
)

const (
	bob    = "bob@example.com"
	msgLen = 64
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Deployment (the pkgen role) ---
	dep, err := keyfile.NewDeployment(keyfile.DeploymentConfig{
		ParamSet: "fast",
		MsgLen:   msgLen,
	})
	if err != nil {
		return err
	}
	if err := dep.Enroll(bob); err != nil {
		return err
	}
	sys := dep.System()

	// --- The SEM daemon (the semd role) ---
	reg := core.NewRegistry()
	ibeSEM, gdhSEM, _, err := dep.Store().BuildSEMs(sys, reg)
	if err != nil {
		return err
	}
	pp, err := pairing.Fast()
	if err != nil {
		return err
	}
	server, err := sem.NewServer(sem.Config{
		Registry: reg,
		IBE:      ibeSEM,
		GDH:      gdhSEM,
		Pairing:  pp,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = server.Serve(ln) }()
	defer func() { _ = server.Close() }()
	fmt.Println("SEM daemon online at", ln.Addr())

	// --- Alice's mail client: encrypt to the identity, nothing else ---
	pub, err := sys.PublicParams()
	if err != nil {
		return err
	}
	mail := func(body string) ([]byte, error) {
		block := make([]byte, msgLen)
		block[0] = byte(len(body))
		copy(block[1:], body)
		ct, err := pub.Encrypt(rand.Reader, bob, block)
		if err != nil {
			return nil, err
		}
		return ct.Marshal(), nil
	}
	wire1, err := mail("Bob — the Q3 numbers are attached.")
	if err != nil {
		return err
	}
	wire2, err := mail("Bob — ignore that, use the v2 sheet.")
	if err != nil {
		return err
	}
	fmt.Printf("Alice sent two encrypted mails (%d bytes each) — zero revocation lookups\n", len(wire1))

	// --- Bob's mail client: decrypt through the SEM ---
	bobCreds := userFile(dep, bob)
	bobKey, err := bobCreds.IBEUserKey(pp)
	if err != nil {
		return err
	}
	client, err := sem.Dial(ln.Addr().String(), pp, 2*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	read := func(wire []byte) (string, error) {
		ct, err := pub.UnmarshalCiphertext(wire)
		if err != nil {
			return "", err
		}
		block, err := core.DecryptIBE(pub, bobKey, ct, client.IBEToken)
		if err != nil {
			return "", err
		}
		return string(block[1 : 1+int(block[0])]), nil
	}
	body, err := read(wire1)
	if err != nil {
		return err
	}
	fmt.Printf("Bob read mail 1: %q\n", body)

	// --- Incident: Bob's laptop is stolen. Helpdesk revokes him. ---
	if err := client.Revoke(bob, "laptop stolen, ticket #4521"); err != nil {
		return err
	}
	fmt.Println("helpdesk revoked bob@example.com (one RPC, no key reissue)")

	// --- The second mail is now unreadable, instantly ---
	if _, err := read(wire2); !errors.Is(err, core.ErrRevoked) {
		return fmt.Errorf("expected instant revocation, got %v", err)
	}
	fmt.Println("Bob's client cannot decrypt mail 2: identity is revoked")

	// --- Security team restores the account after re-imaging ---
	if err := client.Unrevoke(bob); err != nil {
		return err
	}
	body, err = read(wire2)
	if err != nil {
		return err
	}
	fmt.Printf("after reinstatement Bob read mail 2: %q\n", body)
	fmt.Println("note: the same user half kept working — no new enrollment was needed")
	return nil
}

// userFile round-trips the user's credentials through the on-disk JSON
// artifacts (users/<id>.json), exercising the same path cmd/medcli uses.
func userFile(dep *keyfile.Deployment, id string) *keyfile.User {
	dir, err := os.MkdirTemp("", "secure-email-*")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if err := dep.Write(dir); err != nil {
		log.Fatal(err)
	}
	var u keyfile.User
	if err := keyfile.Load(filepath.Join(dir, "users", keyfile.UserFileName(id)), &u); err != nil {
		log.Fatal(err)
	}
	return &u
}
