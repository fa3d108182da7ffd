//go:build !purego

package fp

// useAsm selects mul8 (fp8_amd64.s) under Field.Mul and Field.Square at 8
// limbs. It is read from the CPU once, at package init, and nothing outside
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

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
