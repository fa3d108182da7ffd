package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/pairing"
)

// Mediated signcryption — the paper's closing open problem: "find [a]
// signcryption scheme where both the capabilities of the sender and those
// of the receiver can be removed using this kind of architecture."
//
// This realizes it as the sign-then-encrypt composition of the two
// mediated primitives already in this package:
//
//	Signcrypt(sender → recipient, m):
//	  1. S = mediated-GDH-sign(sender, m ‖ recipient)   [sender's SEM gate]
//	  2. C = mediated-IBE-encrypt(recipient, m ‖ S)      [no gate to send]
//	Designcrypt:
//	  3. m ‖ S = mediated-IBE-decrypt(C)                 [recipient's SEM gate]
//	  4. verify S under the sender's GDH key
//
// Revoking the SENDER makes step 1 fail: no new signcryptions. Revoking
// the RECIPIENT makes step 3 fail: no more designcryptions. The recipient
// identity is bound inside the signature, so a ciphertext cannot be
// re-targeted.
//
// The composition is generic sign-then-encrypt, not a bespoke signcryption
// scheme with a joint security proof — it demonstrates the *revocation*
// property the paper asks for, which is the SEM architecture's
// contribution.

var (
	// ErrSigncryptTooLong is returned when the message plus signature do
	// not fit the IBE block.
	ErrSigncryptTooLong = errors.New("core: message too long for signcryption block")

	// ErrDesigncrypt is returned when the embedded signature does not
	// verify or the envelope is malformed.
	ErrDesigncrypt = errors.New("core: designcryption failed")
)

// Signcrypter runs the composition through the two SEM steps a deployment
// already serves, as DecryptIBE and SignGDH take them: in-process SEMs'
// TokenFor and HalfSign, or a networked client's IBEToken and GDHHalfSign.
type Signcrypter struct {
	Token    func(id string, u *curve.Point) (*pairing.GT, error)
	HalfSign func(id string, h *curve.Point) (*curve.Point, error)
	Public   *bf.PublicParams
}

// NewSigncrypter builds the composite over existing mediated
// infrastructure.
func NewSigncrypter(pub *bf.PublicParams, token func(id string, u *curve.Point) (*pairing.GT, error), halfSign func(id string, h *curve.Point) (*curve.Point, error)) *Signcrypter {
	return &Signcrypter{Token: token, HalfSign: halfSign, Public: pub}
}

// Overhead returns the bytes of the IBE block consumed by the embedded
// signature and length framing.
func (sc *Signcrypter) Overhead() int {
	return 2 + 1 + sc.Public.Pairing.Curve().CoordinateSize()
}

// MaxMessageLen returns the longest message Signcrypt accepts.
func (sc *Signcrypter) MaxMessageLen() int {
	return sc.Public.MsgLen - sc.Overhead()
}

// Signcrypt signs msg with the sender's mediated GDH key (SEM-gated) and
// encrypts message plus signature to the recipient identity.
func (sc *Signcrypter) Signcrypt(rng io.Reader, sender *GDHUserKey, recipient string, msg []byte) (*bf.Ciphertext, error) {
	if len(msg) > sc.MaxMessageLen() {
		return nil, fmt.Errorf("%w: %d > %d", ErrSigncryptTooLong, len(msg), sc.MaxMessageLen())
	}
	// Bind the recipient into the signed payload so the envelope cannot be
	// re-encrypted to someone else without detection.
	signed := signcryptionPayload(sender.ID, recipient, msg)
	sig, err := SignGDH(sender, signed, sc.HalfSign)
	if err != nil {
		return nil, fmt.Errorf("signcrypt (sender gate): %w", err)
	}
	block := make([]byte, sc.Public.MsgLen)
	block[0] = byte(len(msg) >> 8)
	block[1] = byte(len(msg))
	copy(block[2:], msg)
	copy(block[2+len(msg):], sig.Marshal())
	return sc.Public.Encrypt(rng, recipient, block)
}

// Designcrypt decrypts with the recipient's mediated IBE key (SEM-gated),
// extracts and verifies the embedded signature, and returns the message.
func (sc *Signcrypter) Designcrypt(recipient *UserKeyHalf, senderID string, senderKey *bls.PublicKey, c *bf.Ciphertext) ([]byte, error) {
	block, err := DecryptIBE(sc.Public, recipient, c, sc.Token)
	if err != nil {
		return nil, fmt.Errorf("designcrypt (recipient gate): %w", err)
	}
	sigLen := 1 + sc.Public.Pairing.Curve().CoordinateSize()
	if len(block) < 2 {
		return nil, fmt.Errorf("%w: short block", ErrDesigncrypt)
	}
	msgLen := int(block[0])<<8 | int(block[1])
	if msgLen > sc.MaxMessageLen() || 2+msgLen+sigLen > len(block) { //cryptolint:public (framing validation on the recovered plaintext; the length is revealed by design)
		return nil, fmt.Errorf("%w: malformed framing", ErrDesigncrypt)
	}
	msg := bytes.Clone(block[2 : 2+msgLen])
	sig, err := sc.Public.Pairing.Curve().Unmarshal(block[2+msgLen : 2+msgLen+sigLen])
	if err != nil {
		return nil, fmt.Errorf("%w: embedded signature: %v", ErrDesigncrypt, err)
	}
	signed := signcryptionPayload(senderID, recipient.ID, msg)
	if err := senderKey.Verify(signed, sig); err != nil {
		return nil, fmt.Errorf("%w: signature invalid: %v", ErrDesigncrypt, err)
	}
	return msg, nil
}

// signcryptionPayload is the domain-separated byte string the sender signs.
func signcryptionPayload(senderID, recipientID string, msg []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("SIGNCRYPT-V1\x00")
	buf.WriteString(senderID)
	buf.WriteByte(0)
	buf.WriteString(recipientID)
	buf.WriteByte(0)
	buf.Write(msg)
	return buf.Bytes()
}
