package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/sem"
)

// Communication runs T2: one operation of each mediated scheme through the
// real TCP protocol, reporting the SEM→user payload (the cryptographic
// token itself, the paper's unit of comparison) and the full framed wire
// traffic.
//
// Expected shape (paper §5): the mediated GDH half-signature is a single
// compressed G1 point (≈ |p|+8 bits; 160 bits with a subgroup encoding)
// versus 1024 bits for the mRSA half-signature; the mediated-IBE token is a
// GT element (≈ 2|p| ≈ 1000 bits), comparable to IB-mRSA's 1024.
func Communication(w *World) (*Table, error) {
	client, err := w.Dial()
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()

	msg := make([]byte, w.MsgLen)

	// Mediated IBE decryption.
	ct, err := w.IBEPKG.Public().Encrypt(rand.Reader, w.ID, msg)
	if err != nil {
		return nil, err
	}
	if _, err := core.DecryptIBE(w.IBEPKG.Public(), w.IBEUser, ct, client.IBEToken); err != nil {
		return nil, fmt.Errorf("ibe decrypt: %w", err)
	}

	// Mediated GDH signature.
	if _, err := core.SignGDH(w.GDHUser, []byte("t2 communication probe"), client.GDHHalfSign); err != nil {
		return nil, fmt.Errorf("gdh sign: %w", err)
	}

	// IB-mRSA decryption.
	rsaCT, err := w.RSAPub.EncryptOAEP(rand.Reader, msg[:min(w.MsgLen, w.RSAPub.MaxMessageLen())])
	if err != nil {
		return nil, err
	}
	rsaHalfDecrypt := func(id string, c *big.Int) (*big.Int, error) { return client.RSAHalfDecrypt(w.RSAPub, id, c) }
	if _, err := core.DecryptRSA(w.RSAPub, w.ID, w.RSAUser, rsaCT, rsaHalfDecrypt); err != nil {
		return nil, fmt.Errorf("rsa decrypt: %w", err)
	}

	// mRSA signature.
	rsaHalfSign := func(id string, msg []byte) (*big.Int, error) { return client.RSAHalfSign(w.RSAPub, id, msg) }
	if _, err := core.SignRSA(w.RSAPub, w.ID, w.RSAUser, []byte("t2 communication probe"), rsaHalfSign); err != nil {
		return nil, fmt.Errorf("rsa sign: %w", err)
	}

	stats := client.Stats()
	row := func(label string, op sem.Op) []string {
		st := stats[op]
		return []string{
			label,
			bits(st.PayloadReceived),
			fmt.Sprintf("%d", st.BytesSent),
			fmt.Sprintf("%d", st.BytesReceived),
		}
	}
	return &Table{
		ID: "T2",
		Caption: fmt.Sprintf("SEM→user communication per operation (|q|=%d, |p|=%d pairing vs %d-bit RSA)",
			w.Pairing.Q().BitLen(), w.Pairing.P().BitLen(), w.RSAPub.N.BitLen()),
		Columns: []string{"operation", "SEM token (bits)", "wire sent (B)", "wire recv (B)"},
		Rows: [][]string{
			row("mediated GDH half-signature", sem.OpGDHSign),
			row("mRSA half-signature", sem.OpRSASign),
			row("mediated IBE decryption token", sem.OpIBEToken),
			row("IB-mRSA half-decryption", sem.OpRSADecrypt),
		},
		Notes: []string{
			"paper §5: GDH token ≈ 160 bits vs 1024 bits for mRSA — the GDH/RSA ratio here reflects |p|+8 vs |n|",
			"paper §4.1: the IBE token (GT element ≈ 2|p| bits ≈ 1000) does not beat IB-mRSA's 1024; only the GDH signature does",
		},
	}, nil
}
