// Package cttbad exercises the cttime positive cases.
package cttbad

import (
	"math/big"

	"repro/internal/keys"
)

var table [256]byte

// Branches leaks key bits through the instruction stream.
func Branches(k *keys.PrivateKey) int {
	if k.Bytes[0] == 0x80 { // want `branch condition on secret-tainted value`
		return 1
	}
	for i := 0; i < int(k.Bytes[1]); i++ { // want `branch condition on secret-tainted value`
		_ = i
	}
	switch k.Bytes[2] { // want `branch condition on secret-tainted value`
	case 0:
		return 0
	}
	return -1
}

// Lookup leaks key bits through the data cache.
func Lookup(k *keys.PrivateKey) byte {
	return table[k.Bytes[0]] // want `secret-tainted index: memory access depends on secret data`
}

// Route leaks key bits through map bucket addressing.
func Route(k *keys.PrivateKey, m map[byte]int) int {
	return m[k.Bytes[0]] // want `secret-tainted map key: memory access depends on secret data`
}

// Blind runs math/big's value-dependent loops on the secret exponent.
func Blind(k *keys.PrivateKey, n *big.Int) *big.Int {
	return new(big.Int).Mul(k.D, k.D) // want `secret-tainted value reaches variable-time math/big.Int.Mul`
}

// Reduce mutates the secret in place; the receiver is tainted.
func Reduce(k *keys.PrivateKey, n *big.Int) {
	k.D.Mod(k.D, n) // want `secret-tainted value reaches variable-time math/big.Int.Mod`
}

// derive moves the secret through a call boundary; the taint layer tracks
// the result summary.
func derive(k *keys.PrivateKey) *big.Int { return k.D }

// Chained shows interprocedural taint: derive's result is as secret as D.
func Chained(k *keys.PrivateKey, n *big.Int) *big.Int {
	d := derive(k)
	return new(big.Int).Exp(d, d, n) // want `secret-tainted value reaches variable-time math/big.Int.Exp`
}
