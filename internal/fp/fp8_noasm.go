//go:build !amd64 || purego

package fp

// Without the amd64 kernels the 8-limb dispatch is settled at compile time:
// the Go kernels of fp8.go are the only ones, and the assembly is never
// reached.
const useAsm = false

func mul8(z, x, y, p *[8]uint64, n0 uint64) { panic(noAsm) }

func mulFp2x8(zr, zi, ar, ai, br, bi, p *[8]uint64, n0 uint64) { panic(noAsm) }

func lineMul8(ar, ai, alpha, beta, x, y, p *[8]uint64, n0 uint64) { panic(noAsm) }

func sqrFp2x8(zr, zi, ar, ai, p *[8]uint64, n0 uint64) { panic(noAsm) }

func lucasLadder8(vk, vk1, v1, two, p *[8]uint64, n0 uint64, k *uint64, bits uint64) {
	panic(noAsm)
}

const noAsm = "fp: no assembly kernel in this build"
