//go:build ignore

// genlane writes lane_amd64.s: the lane engine, the 8-limb field's kernels
// on AVX-512 IFMA. A lane vector is eight field elements at once, each in
// ten 52-bit limbs (R = 2^520), limb j of all eight lanes in one ZMM
// register; VPMADD52LUQ/HUQ add the low and high 52 bits of eight 52×52-bit
// products into eight 64-bit accumulators in one instruction (Gueron and
// Krasnov, "Accelerating big integer arithmetic using Intel IFMA
// extensions", ARITH 2016). It emits four functions built from one
// Montgomery product:
//
//   - laneMul8, the product of two lane vectors in memory;
//   - laneReplayJ8, a whole x-only Miller replay in one call (Field.ReplayJ);
//   - laneLadder8, up to four trace ladders in one call (Field.LucasLadders);
//   - laneWalkJ8, a run of a Miller walk's doubling steps (Field.WalkJ).
//
// Run it with `go generate ./internal/fp`; CI re-runs it and fails on any
// difference from the committed output. lane.go has the layouts the
// kernels read and the conversions in and out of lane form.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
)

const limbs = 10 // 52-bit limbs of a lane element

var out bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

// The registers. x is the product's x operand (and, between steps, the
// replay's f and the ladder's pair); acc is the eleven-word accumulator,
// whose words rotate one register per round; yR takes the round's limb of
// y and mR its Montgomery factor; t0…t4 are scratch; mask holds 2^52 − 1
// in every lane throughout.
var (
	x                  = []string{"Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9"}
	acc                = []string{"Z10", "Z11", "Z12", "Z13", "Z14", "Z15", "Z16", "Z17", "Z18", "Z19", "Z20"}
	yR, mR             = "Z21", "Z22"
	t0, t1, t2, t3, t4 = "Z23", "Z24", "Z25", "Z26", "Z27"
	mask               = "Z31"
)

// The field constants (laneField) are read through SI; a kernel's scratch
// through DI.
const lf, sc = "SI", "DI"

// mont emits the 8-lane Montgomery product x·y·2^−520 of the x registers
// and the y operand, whose limb i the caller's yLimb(i) brings into yR,
// and returns the accumulator registers in limb order, holding the
// product normalised: every limb below 2^52. Each of the ten rounds adds
// x·y_i (twenty IFMA: low halves into limbs 0…9, high halves into 1…10),
// then m·p with m = t_0·n0 mod 2^52 — p's limbs and n0 broadcast from
// memory — which zeroes the low 52 bits of limb 0, whose carry moves up one
// limb before the register is renamed the new top word. Limbs are not
// carried inside the loop: ten rounds add at most forty halves below 2^52
// to a limb, which stays under 2^58. For inputs below k·p and l·p the
// result is below (kl/256 + 1)·p (p < 2^512): every value the replay and
// the ladder multiply is below 5.4p, every product of theirs below 1.12p,
// and the walk's operands multiply to below 2^8·p², its products to below
// 2p.
func mont(yLimb func(i int)) []string {
	t := append([]string(nil), acc...)
	for _, r := range t {
		p("\tVPXORQ %s, %s, %s", r, r, r)
	}
	for i := 0; i < limbs; i++ {
		p("\t// round %d", i)
		yLimb(i)
		for j := 0; j < limbs; j++ {
			p("\tVPMADD52LUQ %s, %s, %s", yR, x[j], t[j])
		}
		for j := 0; j < limbs; j++ {
			p("\tVPMADD52HUQ %s, %s, %s", yR, x[j], t[j+1])
		}
		p("\tVPXORQ %s, %s, %s", mR, mR, mR)
		p("\tVPMADD52LUQ.BCST laneField_n0(%s), %s, %s", lf, t[0], mR)
		for j := 0; j < limbs; j++ {
			p("\tVPMADD52LUQ.BCST laneField_p+%d(%s), %s, %s", 8*j, lf, mR, t[j])
		}
		for j := 0; j < limbs; j++ {
			p("\tVPMADD52HUQ.BCST laneField_p+%d(%s), %s, %s", 8*j, lf, mR, t[j+1])
		}
		p("\tVPSRLQ $52, %s, %s", t[0], t[0])
		p("\tVPADDQ %s, %s, %s", t[0], t[1], t[1])
		p("\tVPXORQ %s, %s, %s", t[0], t[0], t[0])
		t = append(t[1:], t[0])
	}
	normalize(t[:limbs], "VPSRLQ")
	return t[:limbs]
}

// normalize carries limbs 0…8 of r into the next limb, leaving each below
// 2^52. shift is VPSRLQ for non-negative limbs and VPSRAQ where a lane
// subtraction may have left one negative (the value itself is not).
func normalize(r []string, shift string) {
	for j := 0; j < limbs-1; j++ {
		p("\t%s $52, %s, %s", shift, r[j], t0)
		p("\tVPANDQ %s, %s, %s", mask, r[j], r[j])
		p("\tVPADDQ %s, %s, %s", t0, r[j+1], r[j+1])
	}
}

// yMem reads limb i of a lane vector at off(base).
func yMem(off, base string) func(i int) {
	return func(i int) { p("\tVMOVDQU64 %s+%d(%s), %s", off, 64*i, base, yR) }
}

// yBcast broadcasts limb i of one element (ten words at off(base)) to
// every lane.
func yBcast(off, base string) func(i int) {
	return func(i int) { p("\tVPBROADCASTQ %s+%d(%s), %s", off, 8*i, base, yR) }
}

// yPerm permutes limb i of the x registers by the index vector in idx.
func yPerm(idx string) func(i int) {
	return func(i int) { p("\tVPERMQ %s, %s, %s", x[i], idx, yR) }
}

// perm sets dst_j = src_j permuted by the index vector in idx.
func perm(dst, src []string, idx string) {
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", src[j], idx, dst[j])
	}
}

// loadIdx loads the index vector at off(lf) into r.
func loadIdx(off, r string) { p("\tVMOVDQU64 %s(%s), %s", off, lf, r) }

// store writes the registers r to the lane vector at off(base); load reads it back.
func store(r []string, off, base string) {
	for j := range r {
		p("\tVMOVDQU64 %s, %s+%d(%s)", r[j], off, 64*j, base)
	}
}

func load(r []string, off, base string) {
	for j := range r {
		p("\tVMOVDQU64 %s+%d(%s), %s", off, 64*j, base, r[j])
	}
}

func setMask() {
	p("\tMOVQ $0xfffffffffffff, AX")
	p("\tVPBROADCASTQ AX, %s", mask)
}

func genMul() {
	p(`// func laneMul8(z, x, y *laneVec, lf *laneField)
//
// laneMul8 sets z = x·y·2^−520 mod p lane by lane: the lane product, alone.
// x and y are lane vectors with every limb below 2^52 and values below
// 16p; z gets the product normalised, below 2p. z may alias x or y.
TEXT ·laneMul8(SB), NOSPLIT, $0-32
	MOVQ lf+24(FP), SI
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), DX`)
	load(x, "0", "AX")
	setMask()
	r := mont(yMem("0", "DX"))
	p("\tMOVQ z+0(FP), AX")
	store(r, "0", "AX")
	p("\tVZEROUPPER")
	p("\tRET")
}

// repack emits dst = the radix-2^52 limbs of the 512-bit values whose
// eight 64-bit words are in w (word m of every lane in w[m]).
func repack(dst, w []string) {
	for j := 0; j < limbs; j++ {
		m, s := 52*j/64, 52*j%64
		switch {
		case s == 0:
			p("\tVPANDQ %s, %s, %s", mask, w[m], dst[j])
		case s+52 <= 64 || m == 7:
			p("\tVPSRLQ $%d, %s, %s", s, w[m], dst[j])
			p("\tVPANDQ %s, %s, %s", mask, dst[j], dst[j])
		default:
			p("\tVPSRLQ $%d, %s, %s", s, w[m], dst[j])
			p("\tVPSLLQ $%d, %s, %s", 64-s, w[m+1], t0)
			p("\tVPORQ %s, %s, %s", t0, dst[j], dst[j])
			p("\tVPANDQ %s, %s, %s", mask, dst[j], dst[j])
		}
	}
}

// gather emits w[m] = word m of the eight elements at off(R12) + 128·lane,
// for the lanes set in the mask in R13 (the others zero): one coordinate
// of eight consecutive program lines, which are 128 bytes apart.
func gather(w []string, off int) {
	for m := 0; m < 8; m++ {
		p("\tVPXORQ %s, %s, %s", w[m], w[m], w[m])
		p("\tKMOVW R13, K6")
		p("\tVPGATHERQQ %d(R12)(%s*8), K6, %s", off+8*m, t4, w[m])
	}
}

// lineGroup emits the line values of the eight program lines from line BX
// on (the lines past R11 read as zero) into the scratch's line table, in
// two full lane products: L′ = α·x + β and sL′ = s·L′. The program stores α
// and β in Montgomery form for R = 2^512, which read as lane form is 2^−8
// times their value, so L′ = 2^−8·L: an F_p* factor every line of the
// replay carries alike.
func lineGroup() {
	p("\t// line values of lines BX…BX+7: L′ = α·x + β, sL′ = s·L′")
	p("\tMOVQ BX, R12")
	p("\tSHLQ $7, R12")
	p("\tADDQ R10, R12")
	p("\tMOVQ R11, AX")
	p("\tSUBQ BX, AX")
	p("\tMOVQ $8, DX")
	p("\tCMPQ AX, DX")
	p("\tCMOVQGT DX, AX")
	p("\tMOVQ $1, R13")
	p("\tMOVQ AX, CX")
	p("\tSHLQ CX, R13")
	p("\tDECQ R13")
	loadIdx("laneField_gather", t4)
	w := acc[:8]
	gather(w, 64)
	repack(x, w)
	r := mont(yBcast("replayScratch_xs", sc))
	wb := []string{yR, mR, t1, t2, t3, "Z28", "Z29", "Z30"}
	gather(wb, 0)
	repack(x, wb)
	for j := 0; j < limbs; j++ {
		p("\tVPADDQ %s, %s, %s", r[j], x[j], x[j])
	}
	normalize(x, "VPSRLQ")
	store(x, "replayScratch_lines", sc)
	r = mont(yBcast("replayScratch_xs+80", sc))
	store(r, "replayScratch_lines+640", sc)
}

// combine emits the replay's new f from a step's products q, into the x
// registers as [re, im, re, im, …]: re = q[i1] − q[i2] − 2·q[i3] and
// im = q[i1′] ± q[i2′] + 2·q[i3′], the index vectors alternating between
// the two lanes read for re and im, plus [4p, 2p, …] so no lane goes
// negative, then carried. K4 selects the re lanes and K5 the im lanes.
func combine(q []string, i1, i2, i3 string, imAdd bool) {
	loadIdx(i1, t1)
	loadIdx(i2, t2)
	if i3 != "" {
		loadIdx(i3, t3)
	}
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", q[j], t1, x[j])
		p("\tVPERMQ %s, %s, %s", q[j], t2, yR)
		if imAdd {
			p("\tVPSUBQ %s, %s, K4, %s", yR, x[j], x[j])
			p("\tVPADDQ %s, %s, K5, %s", yR, x[j], x[j])
		} else {
			p("\tVPSUBQ %s, %s, %s", yR, x[j], x[j])
		}
		if i3 != "" {
			p("\tVPERMQ %s, %s, %s", q[j], t3, mR)
			p("\tVPADDQ %s, %s, %s", mR, mR, mR)
			p("\tVPSUBQ %s, %s, K4, %s", mR, x[j], x[j])
			p("\tVPADDQ %s, %s, K5, %s", mR, x[j], x[j])
		}
		p("\tVPADDQ laneField_c42+%d(%s), %s, %s", 64*j, lf, x[j], x[j])
	}
	normalize(x, "VPSRAQ")
}

func genReplay() {
	p(`
// func laneReplayJ8(sc *replayScratch, lf *laneField, kinds *byte, steps uint64, lines *uint64, nlines uint64)
//
// laneReplayJ8 is Field.ReplayJ in one call: a Miller program's replay in
// F_p[j]/(j² + s), f = a + b·j held in lane form as [a, b, a, b, …] in the
// x registers from the first step to the last. kinds[i] says what step i
// does — bit 0 square f, bit 1 fold the next line (L + j) — and the lines
// are the program's (β, α) pairs, sixteen words apiece. A step that
// squares and folds (every doubling) is two lane products,
//
//	[a², b², ab]  then  [A·L′, B·sL′, D·s′, B·s′, D·L′, A·c]
//
// (A = a², B = b², D = ab, a primed value 2^−8 times its own), joined by
// lane permutes and lane additions: f ← c·((A − B·s)·L − 2Ds + (A − B·s +
// 2DL)·j) = c·f²·(L + j). A fold alone is [a·L′, b·s′, a·c, b·L′], a square
// alone [a², b², ab] then [A·c, B·s′, D·c]. Every eighth line the next
// eight lines' L′ and sL′ are computed in two full products (lineGroup),
// f waiting in the scratch. Step kinds and line numbers are public: they
// steer the only branches, and every address is a function of them.
TEXT ·laneReplayJ8(SB), NOSPLIT, $0-48
	MOVQ sc+0(FP), DI
	MOVQ lf+8(FP), SI
	MOVQ kinds+16(FP), R8
	MOVQ steps+24(FP), R9
	MOVQ lines+32(FP), R10
	MOVQ nlines+40(FP), R11
	XORQ BX, BX`)
	setMask()
	for _, k := range []struct {
		reg string
		v   int
	}{{"K1", 0x11}, {"K2", 0x02}, {"K3", 0x09}, {"K4", 0x55}, {"K5", 0xaa}} {
		p("\tMOVQ $0x%02x, AX", k.v)
		p("\tKMOVW AX, %s", k.reg)
	}
	load(x, "laneField_fInit", lf)
	p("\tTESTQ R9, R9")
	p("\tJEQ done")
	p("")
	p("step:")
	p("\tMOVBQZX (R8), R15")
	p("\tTESTQ $2, R15")
	p("\tJEQ kind")
	p("\tTESTQ $7, BX")
	p("\tJNE kind")
	store(x, "replayScratch_state", sc)
	lineGroup()
	load(x, "replayScratch_state", sc)
	p("")
	p("kind:")
	p("\t// R12 = the line's L′ in the table (its sL′ 640 bytes on)")
	p("\tMOVQ BX, R12")
	p("\tANDQ $7, R12")
	p("\tLEAQ replayScratch_lines(DI)(R12*8), R12")
	p("\tCMPQ R15, $3")
	p("\tJEQ squareLine")
	p("\tCMPQ R15, $2")
	p("\tJEQ line")
	p("\tCMPQ R15, $1")
	p("\tJEQ square")
	p("\tJMP next")

	lineY := func(cOff string, lines ...struct{ off, k string }) func(i int) {
		return func(i int) {
			yMem(cOff, sc)(i)
			for _, l := range lines {
				p("\tVPBROADCASTQ %s+%d(R12), %s, %s", l.off, 64*i, l.k, yR)
			}
		}
	}
	type bc = struct{ off, k string }

	p("")
	p("squareLine:")
	loadIdx("laneField_idxSq", t1)
	q := mont(yPerm(t1))
	loadIdx("laneField_idxSL", t1)
	perm(x, q, t1)
	q = mont(lineY("replayScratch_cSL", bc{"0", "K1"}, bc{"640", "K2"}))
	combine(q, "laneField_sl1", "laneField_sl2", "laneField_sl3", false)
	p("\tINCQ BX")
	p("\tJMP next")

	p("")
	p("line:")
	q = mont(lineY("replayScratch_cL", bc{"0", "K3"}))
	combine(q, "laneField_l1", "laneField_l2", "", true)
	p("\tINCQ BX")
	p("\tJMP next")

	p("")
	p("square:")
	loadIdx("laneField_idxSq", t1)
	q = mont(yPerm(t1))
	loadIdx("laneField_idxS", t1)
	perm(x, q, t1)
	q = mont(yMem("replayScratch_cS", sc))
	combine(q, "laneField_s1", "laneField_s2", "", true)

	p("")
	p("next:")
	p("\tINCQ R8")
	p("\tDECQ R9")
	p("\tJNE step")
	p("")
	p("done:")
	p("\t// out = f·c: back to Montgomery form for R = 2^512, below 2p")
	q = mont(yBcast("laneField_one", lf))
	store(q, "replayScratch_out", sc)
	p("\tVZEROUPPER")
	p("\tRET")
}

// pairs copies the two index bytes at the bottom of r into bytes 2m and
// 2m + 1 for every lane pair m and adds 2m to them (R11), so that ladder m
// permutes within its own lanes.
func pairs(r string) {
	p("\tMOVQ %s, R10", r)
	p("\tSHLQ $16, R10")
	p("\tORQ R10, %s", r)
	p("\tMOVQ %s, R10", r)
	p("\tSHLQ $32, R10")
	p("\tORQ R10, %s", r)
	p("\tADDQ R11, %s", r)
}

func genLadder() {
	p(`
// func laneLadder8(sc *ladderScratch, lf *laneField, k *uint64, bits uint64)
//
// laneLadder8 is Field.LucasLadders in one call: up to four trace ladders
// over one exponent, ladder m in lanes 2m and 2m + 1. Each bit is one lane
// product, [u·v, w²] in every lane pair for its pair (u, v) = (V_j,
// V_(j+1)) and w = u for a 0 bit, v for a 1, after which sc.d adds each
// pair's [2p − V_1, 2p − 2]: the new pair is that vector q, read as (q[1],
// q[0]) after a 0 bit and (q[0], q[1]) after a 1. The next step's operands
// x = [u, w] and y = [v, w] are therefore q permuted by index vectors made
// from this bit b and the next one b′ — x = [1 − b, w], y = [b, w] with
// w = 1 − (b ⊕ b′), plus 2m in pair m — which are built in a general
// register, copied into every pair's two bytes, offset by 0x0606040402020000
// and widened by VPMOVZXBQ: the bits steer which lane a permute reads,
// never a branch or an address, and every pair reads its own two lanes. Each
// pair's sc.q starts as [V_1, 2] with b = 0, the pair (2, V_1); a pair the
// caller leaves zero multiplies zeros. The loop runs bits times; only the
// counter and the exponent word it reads follow the step number, which is
// public.
TEXT ·laneLadder8(SB), NOSPLIT, $0-32
	MOVQ sc+0(FP), DI
	MOVQ lf+8(FP), SI
	MOVQ k+16(FP), R8
	MOVQ bits+24(FP), CX
	XORQ BX, BX
	MOVQ $0x0606040402020000, R11`)
	setMask()
	load(x, "ladderScratch_q", sc)
	p("\tTESTQ CX, CX")
	p("\tJEQ done")
	p("")
	p("loop:")
	p("\tDECQ CX")
	p("\t// DX = b′, bit CX of k")
	p("\tMOVQ CX, AX")
	p("\tSHRQ $6, AX")
	p("\tMOVQ (R8)(AX*8), DX")
	p("\tSHRQ CX, DX")
	p("\tANDQ $1, DX")
	p("\t// AX = w<<8 | b (y), R9 = w<<8 | 1 − b (x)")
	p("\tMOVQ BX, AX")
	p("\tXORQ DX, AX")
	p("\tXORQ $1, AX")
	p("\tSHLQ $8, AX")
	p("\tMOVQ BX, R9")
	p("\tXORQ $1, R9")
	p("\tORQ AX, R9")
	p("\tORQ BX, AX")
	p("\tMOVQ DX, BX")
	pairs("R9")
	pairs("AX")
	p("\tVMOVQ R9, X10")
	p("\tVPMOVZXBQ X10, %s", t1)
	p("\tVMOVQ AX, X11")
	p("\tVPMOVZXBQ X11, %s", t2)
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", x[j], t2, yR)
		p("\tVMOVDQU64 %s, ladderScratch_y+%d(%s)", yR, 64*j, sc)
	}
	perm(x, x, t1)
	q := mont(yMem("ladderScratch_y", sc))
	for j := 0; j < limbs; j++ {
		p("\tVPADDQ ladderScratch_d+%d(%s), %s, %s", 64*j, sc, q[j], x[j])
	}
	normalize(x, "VPSRLQ")
	p("\tTESTQ CX, CX")
	p("\tJNE loop")
	p("")
	p("done:")
	p("\t// out = (V_k, V_(k+1)) = q permuted by [1 − b, b], times 2^−8 back to")
	p("\t// Montgomery form for R = 2^512, below 2p")
	p("\tMOVQ BX, AX")
	p("\tSHLQ $8, AX")
	p("\tMOVQ BX, R9")
	p("\tXORQ $1, R9")
	p("\tORQ R9, AX")
	pairs("AX")
	p("\tVMOVQ AX, X10")
	p("\tVPMOVZXBQ X10, %s", t1)
	perm(x, x, t1)
	q = mont(yBcast("laneField_one", lf))
	store(q, "ladderScratch_out", sc)
	p("\tVZEROUPPER")
	p("\tRET")
}

// consts collects the DATA of the walk's index vectors, emitted after the
// code.
var consts bytes.Buffer

// idx declares a read-only index vector of eight lanes (a lane past v
// reads lane 0; what those lanes compute is never read) and returns its
// symbol.
func idx(name string, v ...int) string {
	for l := 0; l < 8; l++ {
		e := 0
		if l < len(v) && v[l] > 0 {
			e = v[l]
		}
		fmt.Fprintf(&consts, "DATA %s<>+%d(SB)/8, $%d\n", name, 8*l, e)
	}
	fmt.Fprintf(&consts, "GLOBL %s<>(SB), RODATA|NOPTR, $64\n", name)
	return name + "<>(SB)"
}

// The walk's masks, one lane each but K7, which is lanes 2 and 4.
const kL0, kL1, kL2, kL3, kL4, kL5, kL24 = "K1", "K2", "K3", "K4", "K5", "K6", "K7"

// walkVec is the address of limb j of the scratch vector named f, and
// walkLane that of its lane l.
func walkVec(f string, j int) string { return fmt.Sprintf("walkScratch_%s+%d(%s)", f, 64*j, sc) }
func walkLane(f string, j, l int) string {
	return fmt.Sprintf("walkScratch_%s+%d(%s)", f, 64*j+8*l, sc)
}

func genWalk() {
	p(`
// func laneWalkJ8(sc *walkScratch, lf *laneField, steps uint64)
//
// laneWalkJ8 runs steps doubling steps of a one-pair Miller walk in
// F_p[j]/(j² + s) (Field.WalkJ). sc.st holds [X, Y, Z, u, v, x, s] in
// Montgomery form for R = 2^512, read as lane form: V = (X, Y, Z) the
// running point (Jacobian, on y² = x³ + x), f = u + v·j the accumulator, x
// the evaluation point's abscissa. One entry product by 2^528 mod p takes
// them to lane form; x and s stay in sc.xs. A step is four lane products,
//
//	[X², Z², YZ, u², v², uv]              = [A, ZZ, YZ, uu, vv, uv]
//	[ZZ, 2YZ, vv, ZZ, uv]·[ZZ, ZZ, s, x, s] = [C, c, s·vv, ZZ·x, s·uv]
//	[A, X, E, 3A + C, U, 2s·uv]·[C, E, E, ZZ·x, c, c]
//	                                      = [AC, a, E², b·x, Uc, sVc]
//	[E, U, V]·[E² + 8AC, L, L]            = [Y′, UL, VL]
//
// (E = A − C, U = uu − s·vv, V = 2uv, L = a + b·x), joined by lane
// permutes and lane sums, and the new state is [E², Y′, 2YZ, UL − sVc,
// Uc + VL]: millerVars.doubleStep's X₃, Y₃, Z₃ and tangent (a, b, c), and
// f ← f²·(L + c·j), the same field elements. Sums that subtract add 2p per
// subtracted product, so no lane goes negative; every value multiplied is
// below 18p and every pair of operands multiplies to below 2^8·p², so
// every product is below 2p. An exit product by 2^512 mod p takes the
// state back to Montgomery form, below 2p, in sc.st. Nothing branches but
// the step counter.
TEXT ·laneWalkJ8(SB), NOSPLIT, $0-24
	MOVQ sc+0(FP), DI
	MOVQ lf+8(FP), SI
	MOVQ steps+16(FP), R9`)
	setMask()
	for _, k := range []struct {
		reg string
		v   int
	}{{kL0, 0x01}, {kL1, 0x02}, {kL2, 0x04}, {kL3, 0x08}, {kL4, 0x10}, {kL5, 0x20}, {kL24, 0x14}} {
		p("\tMOVQ $0x%02x, AX", k.v)
		p("\tKMOVW AX, %s", k.reg)
	}
	p("\t// into lane form: ·2^528")
	load(x, "walkScratch_st", sc)
	q := mont(yBcast("laneField_in", lf))
	store(q, "walkScratch_st", sc)
	store(q, "walkScratch_xs", sc)
	p("\tTESTQ R9, R9")
	p("\tJEQ done")
	const xLane, sLane = 5, 6
	i0, i1, i2, i3 := "Z28", "Z29", "Z30", t1

	p("")
	p("step:")
	p("\t// [X, Z, Y, u, v, u]·[X, Z, Z, u, v, v]")
	p("\tVMOVDQU64 %s, %s", idx("walkP1x", 0, 2, 1, 3, 4, 3), i0)
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", walkVec("st", j), i0, x[j])
	}
	p("\tVMOVDQU64 %s, %s", idx("walkP1y", 0, 1, 1, 3, 4, 4), i3)
	q = mont(yPerm(i3))
	store(q, "walkScratch_m1", sc)

	p("\t// [ZZ, 2YZ, vv, ZZ, uv]·[ZZ, ZZ, s, x, s]")
	p("\tVMOVDQU64 %s, %s", idx("walkP2x", 1, 2, 4, 1, 5), i0)
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", walkVec("m1", j), i0, x[j])
		p("\tVPADDQ %s, %s, %s, %s", x[j], x[j], kL1, x[j])
	}
	normalize(x, "VPSRLQ")
	store(x, "walkScratch_z3", sc)
	p("\tVPXORQ %s, %s, %s", i3, i3, i3)
	q = mont(func(i int) {
		p("\tVPERMQ %s, %s, %s", x[i], i3, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("xs", i, sLane), kL24, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("xs", i, xLane), kL3, yR)
	})
	store(q, "walkScratch_m2", sc)

	p("\t// [A, X, E, 3A + C, U, 2s·uv]·[C, E, E, ZZ·x, c, c]")
	p("\tVMOVDQU64 %s, %s", idx("walkP3a", 0, 0, 0, 0, 3), i0)
	p("\tVMOVDQU64 %s, %s", idx("walkP3c", 0, 0, 0, 0, 2, 4), i1)
	p("\tVPXORQ %s, %s, %s", i2, i2, i2)
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", walkVec("m1", j), i0, t3) // [A, ·, A, A, uu, ·]
		p("\tVPERMQ %s, %s, %s", walkVec("m2", j), i1, t2) // [·, ·, C, C, s·vv, s·uv]
		p("\tVMOVDQA64 %s, %s", t3, x[j])
		p("\tVPERMQ %s, %s, %s, %s", walkVec("st", j), i2, kL1, x[j]) // X
		p("\tVPADDQ %s, %s, %s, %s", t3, x[j], kL3, x[j])
		p("\tVPADDQ %s, %s, %s, %s", t3, x[j], kL3, x[j])
		p("\tVPADDQ %s, %s, %s, %s", t2, x[j], kL3, x[j])
		p("\tVPSUBQ %s, %s, %s, %s", t2, x[j], kL24, x[j])
		p("\tVPADDQ.BCST laneField_p2+%d(%s), %s, %s, %s", 8*j, lf, x[j], kL24, x[j])
		p("\tVPADDQ %s, %s, %s, %s", t2, t2, kL5, x[j])
	}
	normalize(x, "VPSRAQ")
	store(x, "walkScratch_e", sc)
	p("\tVMOVDQU64 %s, %s", idx("walkP3y", 0, 2, 2), i3)
	q = mont(func(i int) {
		p("\tVPERMQ %s, %s, %s", x[i], i3, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("m2", i, 0), kL0, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("m2", i, 3), kL3, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("m2", i, 1), kL4, yR)
		p("\tVPBROADCASTQ %s, %s, %s", walkLane("m2", i, 1), kL5, yR)
	})
	store(q, "walkScratch_m3", sc)

	p("\t// [E, U, V]·[E² + 8AC, L, L]")
	p("\tVMOVDQU64 %s, %s", idx("walkP4x", 2, 4), i0)
	p("\tVMOVDQU64 %s, %s", idx("walkP4v", 0, 0, 5), i1)
	p("\tVMOVDQU64 %s, %s", idx("walkP4a", 2, 1, 1), i2)
	p("\tVMOVDQU64 %s, %s", idx("walkP4b", 0, 3, 3), i3)
	y := acc[:limbs]
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", walkVec("e", j), i0, x[j])
		p("\tVPERMQ %s, %s, %s, %s", walkVec("m1", j), i1, kL2, x[j])
		p("\tVPADDQ %s, %s, %s, %s", x[j], x[j], kL2, x[j])
		p("\tVPERMQ %s, %s, %s", walkVec("m3", j), i2, t2) // [E², a, a]
		p("\tVPERMQ %s, %s, %s", walkVec("m3", j), i3, t3) // [AC, b·x, b·x]
		p("\tVPSLLQ $3, %s, %s, %s", t3, kL0, t3)
		p("\tVPADDQ %s, %s, %s", t2, t3, y[j])
	}
	normalize(x, "VPSRLQ")
	normalize(y, "VPSRLQ")
	store(y, "walkScratch_y", sc)
	q = mont(yMem("walkScratch_y", sc))

	p("\t// the new state [E², Y′, 2YZ, UL − sVc, Uc + VL]")
	p("\tVMOVDQU64 %s, %s", idx("walkNewA", 2, 0, 0, 5, 4), i0)
	p("\tVMOVDQU64 %s, %s", idx("walkNewB", 0, 0, 0, 1, 2), i1)
	p("\tVMOVDQU64 %s, %s", idx("walkNewZ", 0, 0, 1), i2)
	for j := 0; j < limbs; j++ {
		p("\tVPERMQ %s, %s, %s", walkVec("m3", j), i0, x[j]) // [E², ·, ·, sVc, Uc]
		p("\tVPERMQ %s, %s, %s", q[j], i1, t2)               // [Y′, Y′, Y′, UL, VL]
		p("\tVMOVDQA64 %s, %s, %s", t2, kL1, x[j])
		p("\tVPSUBQ %s, %s, %s, %s", x[j], t2, kL3, x[j])
		p("\tVPADDQ.BCST laneField_p2+%d(%s), %s, %s, %s", 8*j, lf, x[j], kL3, x[j])
		p("\tVPADDQ %s, %s, %s, %s", t2, x[j], kL4, x[j])
		p("\tVPERMQ %s, %s, %s, %s", walkVec("z3", j), i2, kL2, x[j])
	}
	normalize(x, "VPSRAQ")
	store(x, "walkScratch_st", sc)
	p("\tDECQ R9")
	p("\tJNE step")
	p("")
	p("done:")
	p("\t// back to Montgomery form for R = 2^512, below 2p")
	load(x, "walkScratch_st", sc)
	q = mont(yBcast("laneField_one", lf))
	store(q, "walkScratch_st", sc)
	p("\tVZEROUPPER")
	p("\tRET")
}

func main() {
	p(`// Code generated by genlane.go; DO NOT EDIT.

//go:build !purego

#include "textflag.h"
#include "go_asm.h"
`)
	genMul()
	genReplay()
	genLadder()
	genWalk()
	p(`
// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET`)
	p("")
	out.Write(consts.Bytes())
	if err := os.WriteFile("lane_amd64.s", out.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
