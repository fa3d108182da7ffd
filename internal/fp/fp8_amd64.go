//go:build !purego

package fp

// useAsm selects the kernels of fp8_amd64.s at 8 limbs: mul8 under
// Field.Mul and Field.Square, mulFp2x8, lineMul8 and sqrFp2x8 under
// MulFp2, MulLine and SquareFp2, lucasLadder8 under LucasLadder. It is read
// from the CPU once, at package init, and nothing outside
// this package's tests writes it: MULX is BMI2 and ADCX/ADOX are ADX, both
// reported by CPUID leaf 7 (EBX bits 8 and 19).
var useAsm = func() bool {
	const bmi2, adx = 1 << 8, 1 << 19
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(bmi2|adx) == bmi2|adx
}()

//go:noescape
func mul8(z, x, y, p *[8]uint64, n0 uint64)

//go:noescape
func mulFp2x8(zr, zi, ar, ai, br, bi, p *[8]uint64, n0 uint64)

//go:noescape
func lineMul8(ar, ai, alpha, beta, x, y, p *[8]uint64, n0 uint64)

//go:noescape
func sqrFp2x8(zr, zi, ar, ai, p *[8]uint64, n0 uint64)

//go:noescape
func lucasLadder8(vk, vk1, v1, two, p *[8]uint64, n0 uint64, k *uint64, bits uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
