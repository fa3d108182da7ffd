// Command medcli is the user-side client for the mediated cryptosystems:
// it encrypts to identities (no certificate or revocation lookup — the
// identity based property), decrypts and signs with the help of a running
// SEM daemon, verifies signatures locally, and administers revocation.
//
// Usage:
//
//	medcli -system deploy/system.json encrypt -to bob@example.com <plain.txt >ct.b64
//	medcli -system deploy/system.json -user deploy/users/bob_at_example.com.json \
//	       -sem 127.0.0.1:7300 decrypt <ct.b64 >plain.txt
//	medcli ... decrypt -batch <cts.b64lines >plain.b64lines
//	medcli ... sign <doc.txt >sig.b64
//	medcli -system ... verify -id alice@example.com -sig sig.b64 <doc.txt
//	medcli -sem ... revoke -id bob@example.com -reason "left the company"
//	medcli -sem ... status -id bob@example.com
//
// Against a sharded fleet, pass -shards a:7300,b:7300,c:7300 instead of
// -sem: ops route to the identity's shard on a consistent-hash ring with
// replica failover, revocation broadcasts fleet-wide, and list unions
// every shard's journal.
//
// Plaintexts for encrypt are limited to msgLen−1 bytes (one byte carries
// the length inside the fixed-size IBE block).
package main

import (
	"bufio"
	"encoding/base64"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/keyfile"
	"repro/internal/pairing"
	"repro/internal/sem"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil { //cryptolint:nodeadline (interactive CLI on local stdio; the SEM client sets per-operation deadlines internally)
		fmt.Fprintln(os.Stderr, "medcli:", err)
		os.Exit(1)
	}
}

type cli struct {
	system *keyfile.System
	user   *keyfile.User
	semAdr string
	shards []string
}

// mediator is the SEM-side surface medcli needs; *sem.Pool (one daemon)
// and *sem.ShardedClient (a fleet behind -shards) both satisfy it.
type mediator interface {
	DecryptIBE(pub *bf.PublicParams, key *core.UserKeyHalf, ct *bf.Ciphertext) ([]byte, error)
	TokenBatch(ids []string, us []*curve.Point) ([]*pairing.GT, []error, error)
	SignGDH(key *core.GDHUserKey, msg []byte) (*curve.Point, error)
	Revoke(id, reason string) error
	Unrevoke(id string) error
	Status(id string) (bool, error)
	ListRevoked() ([]core.RevocationEntry, error)
	Close() error
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("medcli", flag.ContinueOnError)
	var (
		systemFn = fs.String("system", "deploy/system.json", "system parameters file")
		userFn   = fs.String("user", "", "user credential file (for decrypt/sign)")
		semAddr  = fs.String("sem", "127.0.0.1:7300", "SEM daemon address")
		shardsFl = fs.String("shards", "", "comma-separated SEM shard addresses; selects consistent-hash routing with replica failover instead of -sem")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command: encrypt|decrypt|sign|verify|revoke|unrevoke|status|list")
	}
	c := &cli{semAdr: *semAddr}
	for _, a := range strings.Split(*shardsFl, ",") {
		if a = strings.TrimSpace(a); a != "" {
			c.shards = append(c.shards, a)
		}
	}
	c.system = &keyfile.System{}
	if err := keyfile.Load(*systemFn, c.system); err != nil {
		return err
	}
	if *userFn != "" {
		c.user = &keyfile.User{}
		if err := keyfile.Load(*userFn, c.user); err != nil {
			return err
		}
	}
	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "encrypt":
		return c.encrypt(cmdArgs, stdin, stdout)
	case "decrypt":
		return c.decrypt(cmdArgs, stdin, stdout)
	case "sign":
		return c.sign(cmdArgs, stdin, stdout)
	case "verify":
		return c.verify(cmdArgs, stdin, stdout)
	case "revoke", "unrevoke", "status":
		return c.admin(cmd, cmdArgs, stdout)
	case "list":
		return c.list(stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// pad embeds msg into the fixed IBE block: one length byte plus payload.
func pad(msg []byte, block int) ([]byte, error) {
	if len(msg) > block-1 || len(msg) > 255 {
		return nil, fmt.Errorf("plaintext is %d bytes; limit is %d", len(msg), min(block-1, 255))
	}
	out := make([]byte, block)
	out[0] = byte(len(msg))
	copy(out[1:], msg)
	return out, nil
}

func unpad(block []byte) ([]byte, error) {
	if len(block) == 0 || int(block[0]) > len(block)-1 { //cryptolint:public (padding-length check on the recovered plaintext)
		return nil, fmt.Errorf("corrupt padded block")
	}
	return block[1 : 1+int(block[0])], nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (c *cli) dial() (mediator, error) {
	pp, err := c.system.Params()
	if err != nil {
		return nil, err
	}
	if len(c.shards) > 0 {
		return sem.NewShardedClient(c.shards, pp, sem.ShardedConfig{Replicas: 2})
	}
	return sem.Dial(c.semAdr, pp, 5*time.Second)
}

func (c *cli) encrypt(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("encrypt", flag.ContinueOnError)
	to := fs.String("to", "", "recipient identity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("encrypt: missing -to identity")
	}
	pub, err := c.system.PublicParams()
	if err != nil {
		return err
	}
	msg, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	padded, err := pad(msg, pub.MsgLen)
	if err != nil {
		return err
	}
	ct, err := pub.Encrypt(nil, *to, padded)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, base64.StdEncoding.EncodeToString(ct.Marshal()))
	return err
}

func (c *cli) decrypt(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("decrypt", flag.ContinueOnError)
	batch := fs.Bool("batch", false, "read one base64 ciphertext per line, fetch all tokens in one protocol-v2 frame, write one base64 plaintext per line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.user == nil {
		return fmt.Errorf("decrypt: pass -user <credential file>")
	}
	pub, err := c.system.PublicParams()
	if err != nil {
		return err
	}
	userKey, err := c.user.IBEUserKey(pub.Pairing)
	if err != nil {
		return err
	}
	client, err := c.dial()
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	if *batch {
		return c.decryptBatch(pub, userKey, client, stdin, stdout)
	}
	raw, err := readBase64(stdin)
	if err != nil {
		return err
	}
	ct, err := pub.UnmarshalCiphertext(raw)
	if err != nil {
		return err
	}
	padded, err := client.DecryptIBE(pub, userKey, ct)
	if err != nil {
		return err
	}
	msg, err := unpad(padded)
	if err != nil {
		return err
	}
	_, err = stdout.Write(msg)
	return err
}

// decryptBatch decrypts one base64 ciphertext per input line, requesting
// all the SEM tokens in a single batched round trip. Plaintexts come out
// base64-encoded one per line so binary messages stay line-aligned with
// their inputs; a failed line prints as "ERROR <reason>" and the command
// exits nonzero after processing every line.
func (c *cli) decryptBatch(pub *bf.PublicParams, userKey *core.UserKeyHalf, client mediator, stdin io.Reader, stdout io.Writer) error {
	var cts []*bf.Ciphertext
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		raw, err := base64.StdEncoding.DecodeString(line)
		if err != nil {
			return fmt.Errorf("line %d: decode base64 input: %w", lineNo, err)
		}
		ct, err := pub.UnmarshalCiphertext(raw)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		cts = append(cts, ct)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(cts) == 0 {
		return fmt.Errorf("decrypt -batch: no ciphertexts on stdin")
	}
	ids := make([]string, len(cts))
	us := make([]*curve.Point, len(cts))
	for i, ct := range cts {
		ids[i] = userKey.ID
		us[i] = ct.U
	}
	tokens, errs, err := client.TokenBatch(ids, us)
	if err != nil {
		return err
	}
	failed := 0
	for i, ct := range cts {
		if errs[i] != nil {
			failed++
			if _, err := fmt.Fprintf(stdout, "ERROR %v\n", errs[i]); err != nil {
				return err
			}
			continue
		}
		padded, err := core.UserDecrypt(pub, userKey, ct, tokens[i])
		if err == nil {
			var msg []byte
			if msg, err = unpad(padded); err == nil {
				if _, werr := fmt.Fprintln(stdout, base64.StdEncoding.EncodeToString(msg)); werr != nil {
					return werr
				}
				continue
			}
		}
		failed++
		if _, werr := fmt.Fprintf(stdout, "ERROR %v\n", err); werr != nil {
			return werr
		}
	}
	if failed > 0 {
		return fmt.Errorf("decrypt -batch: %d of %d ciphertexts failed", failed, len(cts))
	}
	return nil
}

func (c *cli) sign(_ []string, stdin io.Reader, stdout io.Writer) error {
	if c.user == nil {
		return fmt.Errorf("sign: pass -user <credential file>")
	}
	pp, err := c.system.Params()
	if err != nil {
		return err
	}
	key, err := c.user.GDHUserKey(pp)
	if err != nil {
		return err
	}
	msg, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	client, err := c.dial()
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	sig, err := client.SignGDH(key, msg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, base64.StdEncoding.EncodeToString(sig.Marshal()))
	return err
}

func (c *cli) verify(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	id := fs.String("id", "", "signer identity")
	sigFn := fs.String("sig", "", "signature file (base64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *sigFn == "" {
		return fmt.Errorf("verify: need -id and -sig")
	}
	sigFile, err := os.Open(*sigFn)
	if err != nil {
		return err
	}
	defer func() { _ = sigFile.Close() }()
	sigRaw, err := readBase64(sigFile) //cryptolint:nodeadline (local file read; network deadlines do not apply)
	if err != nil {
		return err
	}
	pp, err := c.system.Params()
	if err != nil {
		return err
	}
	sig, err := wire.UnmarshalG1(pp.Curve(), sigRaw)
	if err != nil {
		return err
	}
	vk, err := c.system.GDHPublicKey(*id)
	if err != nil {
		return err
	}
	msg, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	if err := vk.Verify(msg, sig); err != nil {
		return fmt.Errorf("signature INVALID: %w", err)
	}
	_, err = fmt.Fprintln(stdout, "signature OK")
	return err
}

func (c *cli) admin(cmd string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	id := fs.String("id", "", "identity")
	reason := fs.String("reason", "administrative action", "revocation reason")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("%s: missing -id", cmd)
	}
	client, err := c.dial()
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	switch cmd {
	case "revoke":
		if err := client.Revoke(*id, *reason); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "revoked %s\n", *id)
	case "unrevoke":
		if err := client.Unrevoke(*id); err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "unrevoked %s\n", *id)
	case "status":
		revoked, serr := client.Status(*id)
		if serr != nil {
			return serr
		}
		state := "active"
		if revoked {
			state = "REVOKED"
		}
		_, err = fmt.Fprintf(stdout, "%s: %s\n", *id, state)
	}
	return err
}

func (c *cli) list(stdout io.Writer) error {
	client, err := c.dial()
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	entries, err := client.ListRevoked()
	if err != nil {
		// A partially-invalid list still carries every entry the server
		// sent intact: print what survived and warn instead of failing
		// the whole administrative query.
		if !errors.Is(err, sem.ErrPartialList) {
			return err
		}
		fmt.Fprintln(os.Stderr, "medcli: warning:", err)
	}
	if len(entries) == 0 {
		_, err = fmt.Fprintln(stdout, "no revoked identities")
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(stdout, "%s\t%s\t%s\n", e.ID, e.When.Format(time.RFC3339), e.Reason); err != nil {
			return err
		}
	}
	return nil
}

func readBase64(r io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := make([]byte, 0, len(raw))
	for _, b := range raw {
		if b != '\n' && b != '\r' && b != ' ' && b != '\t' {
			trimmed = append(trimmed, b)
		}
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(trimmed)))
	n, err := base64.StdEncoding.Decode(out, trimmed)
	if err != nil {
		return nil, fmt.Errorf("decode base64 input: %w", err)
	}
	return out[:n], nil
}
