// Command pkgen is the deployment tool for the PKG / trusted-authority
// role: it generates system parameters, enrolls identities in all three
// mediated schemes (splitting each key between user and SEM), and writes
// the artifact set cmd/semd and cmd/medcli consume.
//
// Usage:
//
//	pkgen -out ./deploy -params paper -rsa 1024 -ids alice@example.com,bob@example.com
//
// It can also generate fresh pairing parameters (instead of the embedded
// fixed sets):
//
//	pkgen -genparams -qbits 160 -pbits 512
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/keyfile"
	"repro/internal/pairing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pkgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pkgen", flag.ContinueOnError)
	var (
		out       = fs.String("out", "deploy", "output directory for the deployment artifacts")
		params    = fs.String("params", "paper", "pairing parameter set: toy, fast, paper or paper_dense")
		rsaBits   = fs.Int("rsa", 1024, "IB-mRSA modulus size (0 disables the baseline; 512/1024 use embedded fixed moduli)")
		msgLen    = fs.Int("msglen", 32, "IBE plaintext length in bytes")
		ids       = fs.String("ids", "", "comma-separated identities to enroll")
		genParams = fs.Bool("genparams", false, "generate fresh pairing parameters and print them instead of deploying")
		qBits     = fs.Int("qbits", 160, "group order size for -genparams")
		pBits     = fs.Int("pbits", 512, "field size for -genparams")
		threshold = fs.String("threshold", "", "emit a (t,n) threshold deployment instead (e.g. -threshold 3,5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *genParams {
		return generateParams(*qBits, *pBits)
	}
	if *ids == "" {
		return fmt.Errorf("no identities: pass -ids alice@example.com,bob@example.com")
	}
	if *threshold != "" {
		return deployThreshold(*out, *params, *msgLen, *threshold, *ids)
	}
	d, err := keyfile.NewDeployment(keyfile.DeploymentConfig{
		ParamSet: *params,
		MsgLen:   *msgLen,
		RSABits:  *rsaBits,
	})
	if err != nil {
		return err
	}
	for _, id := range strings.Split(*ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if err := d.Enroll(id); err != nil {
			return err
		}
		fmt.Printf("enrolled %s\n", id)
	}
	if err := d.Write(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s/system.json, %s/sem-store.json and %d user files under %s/users/\n",
		*out, *out, len(d.Users()), *out)
	fmt.Println("give sem-store.json to the SEM daemon (semd) and each users/<id>.json to its user only")
	return nil
}

func deployThreshold(out, params string, msgLen int, threshold, ids string) error {
	var t, n int
	if _, err := fmt.Sscanf(threshold, "%d,%d", &t, &n); err != nil {
		return fmt.Errorf("parse -threshold %q (want \"t,n\"): %w", threshold, err)
	}
	d, err := keyfile.NewThresholdDeployment(keyfile.ThresholdDeploymentConfig{
		ParamSet: params,
		MsgLen:   msgLen,
		T:        t,
		N:        n,
	})
	if err != nil {
		return err
	}
	count := 0
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if err := d.Enroll(id); err != nil {
			return err
		}
		count++
		fmt.Printf("enrolled %s across %d players\n", id, n)
	}
	if err := d.Write(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s/threshold.json and %d player files under %s/players/ (t=%d, n=%d, %d identities)\n",
		out, n, out, t, n, count)
	return nil
}

func generateParams(qBits, pBits int) error {
	pp, err := pairing.Generate(rand.Reader, qBits, pBits)
	if err != nil {
		return err
	}
	gen := pp.Generator()
	fmt.Printf("p  = %x\n", pp.P())  //cryptolint:public (freshly generated public parameters; printing them is the tool's purpose)
	fmt.Printf("q  = %x\n", pp.Q())  //cryptolint:public (freshly generated public parameters; printing them is the tool's purpose)
	fmt.Printf("gx = %x\n", gen.X()) //cryptolint:public (freshly generated public parameters; printing them is the tool's purpose)
	fmt.Printf("gy = %x\n", gen.Y()) //cryptolint:public (freshly generated public parameters; printing them is the tool's purpose)
	fmt.Println("add these to internal/pairing/fixed.go to use them as a named set")
	return nil
}
