//go:build !purego

package fp

import "fmt"

// useAsm selects the kernels of fp8_amd64.s at 8 limbs: mul8 under
// Field.Mul and Field.Square, mulFp2x8, lineMul8 and sqrFp2x8 under
// MulFp2, MulLine and SquareFp2, lucasLadder8 under LucasLadders. It is read
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

// laneMissing is empty where the lane engine of lane_amd64.s can run, and
// otherwise names what is missing: the assembly above (the lane kernels
// call nothing of it, but a CPU with IFMA and without ADX is not worth a
// third selection), AVX512F and AVX512_IFMA (CPUID leaf 7, EBX bits 16 and
// 21), or the operating system's saving of the opmask and ZMM registers
// (CPUID leaf 1 ECX bit 27, OSXSAVE, then XCR0 bits 1, 2 and 5–7). Read once,
// at package init, like useAsm.
var laneMissing = func() string {
	const (
		osxsave = 1 << 27
		avx512f = 1 << 16
		ifma    = 1 << 21
		zmm     = 0xe6 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if !useAsm {
		return "the amd64-adx kernel is not selected (CPUID leaf 7 EBX bits 8 and 19)"
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return "CPUID leaf 1 ECX bit 27 (OSXSAVE) is clear"
	}
	if eax, _ := xgetbv(); eax&zmm != zmm {
		return fmt.Sprintf("XCR0 = %#x lacks bits 1, 2 and 5–7 (the opmask and ZMM state)", eax)
	}
	_, ebx, _, _ := cpuid(7, 0)
	if ebx&avx512f == 0 {
		return "CPUID leaf 7 EBX bit 16 (AVX512F) is clear"
	}
	if ebx&ifma == 0 {
		return "CPUID leaf 7 EBX bit 21 (AVX512_IFMA) is clear"
	}
	return ""
}()

// useLanes selects the lane engine under Field.ReplayJ, WalkJ and
// LucasLadders at 8 limbs; see laneMissing.
var useLanes = laneMissing == ""

//go:noescape
func laneMul8(z, x, y *laneVec, lf *laneField)

//go:noescape
func laneReplayJ8(sc *replayScratch, lf *laneField, kinds *byte, steps uint64, lines *uint64, nlines uint64)

//go:noescape
func laneLadder8(sc *ladderScratch, lf *laneField, k *uint64, bits uint64)

func xgetbv() (eax, edx uint32)

//go:noescape
func laneWalkJ8(sc *walkScratch, lf *laneField, steps uint64)
