package bench

import (
	"strings"
	"testing"
)

func report(params string, entries ...BaselineEntry) *BaselineReport {
	return &BaselineReport{Params: params, Entries: entries}
}

func TestCompareBaselinesFlagsOnlyRealRegressions(t *testing.T) {
	ref := report("paper",
		BaselineEntry{Name: "pair", NsPerOp: 1000},
		BaselineEntry{Name: "pair.fixed", NsPerOp: 500},
		BaselineEntry{Name: "bf.encrypt", NsPerOp: 2000},
	)
	fresh := report("paper",
		BaselineEntry{Name: "pair", NsPerOp: 1100},      // +10% — within tolerance
		BaselineEntry{Name: "pair.fixed", NsPerOp: 900}, // +80% — regression
		BaselineEntry{Name: "bf.encrypt", NsPerOp: 1500},
		BaselineEntry{Name: "brand.new", NsPerOp: 1}, // not in ref — ignored
	)
	regs, err := CompareBaselines(ref, fresh, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Name != "pair.fixed" {
		t.Fatalf("regressions = %+v, want exactly pair.fixed", regs)
	}
	if regs[0].Percent < 79 || regs[0].Percent > 81 {
		t.Fatalf("slowdown = %.1f%%, want ~80%%", regs[0].Percent)
	}
	if s := regs[0].String(); !strings.Contains(s, "pair.fixed") {
		t.Fatalf("String() = %q", s)
	}
}

func fptr(v float64) *float64 { return &v }

func TestCompareBaselinesAllocGate(t *testing.T) {
	ref := report("paper",
		BaselineEntry{Name: "fp.mul", NsPerOp: 100, AllocsPerOp: fptr(0)},
		BaselineEntry{Name: "pair", NsPerOp: 1000, AllocsPerOp: fptr(100)},
		BaselineEntry{Name: "legacy", NsPerOp: 1000}, // pre-column snapshot
	)
	fresh := report("paper",
		BaselineEntry{Name: "fp.mul", NsPerOp: 100, AllocsPerOp: fptr(2)},   // zero-alloc claim broken
		BaselineEntry{Name: "pair", NsPerOp: 1000, AllocsPerOp: fptr(105)},  // within tolerance
		BaselineEntry{Name: "legacy", NsPerOp: 1000, AllocsPerOp: fptr(50)}, // no ref column — skipped
	)
	regs, err := CompareBaselines(ref, fresh, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Name != "fp.mul" || regs[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %+v, want exactly fp.mul allocs/op", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "allocs/op") {
		t.Fatalf("String() = %q, want allocs/op metric", s)
	}

	// A large allocation growth over a nonzero reference is flagged too.
	fresh2 := report("paper",
		BaselineEntry{Name: "pair", NsPerOp: 1000, AllocsPerOp: fptr(300)},
	)
	regs, err = CompareBaselines(ref, fresh2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("regressions = %+v, want one allocs/op regression", regs)
	}
}

func TestCompareBaselinesGenerousToleranceAcceptsAll(t *testing.T) {
	ref := report("paper", BaselineEntry{Name: "pair", NsPerOp: 1000})
	fresh := report("paper", BaselineEntry{Name: "pair", NsPerOp: 3000})
	regs, err := CompareBaselines(ref, fresh, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %+v with 400%% tolerance", regs)
	}
}

func TestCompareBaselinesGuards(t *testing.T) {
	paper := report("paper", BaselineEntry{Name: "pair", NsPerOp: 1})
	toy := report("toy", BaselineEntry{Name: "pair", NsPerOp: 1})
	if _, err := CompareBaselines(paper, toy, 15); err == nil {
		t.Error("parameter-set mismatch accepted")
	}
	disjoint := report("paper", BaselineEntry{Name: "other", NsPerOp: 1})
	if _, err := CompareBaselines(paper, disjoint, 15); err == nil {
		t.Error("disjoint entry sets accepted")
	}
	if _, err := CompareBaselines(paper, paper, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestCompareBaselinesRatioGates: the kernel ratios are judged on the fresh
// report alone, at any tolerance, whatever the reference records.
func TestCompareBaselinesRatioGates(t *testing.T) {
	with := func(mulGeneric, squareMul float64) *BaselineReport {
		r := report("paper", BaselineEntry{Name: "fp.mul", NsPerOp: 100})
		r.Ratios = []BaselineRatio{
			{Name: "fp.mul.go ÷ fp.mul.generic", Value: mulGeneric},
			{Name: "fp.square.go ÷ fp.mul.go", Value: squareMul},
		}
		return r
	}
	ref := with(0.40, 0.81)
	if regs, err := CompareBaselines(ref, with(0.45, 0.85), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy ratios flagged: %+v, %v", regs, err)
	}

	// The Go kernel fell back to the generic loop and Square to Mul: fp.mul
	// is inside any absolute tolerance, both ratios are not.
	regs, err := CompareBaselines(ref, with(1.0, 1.0), 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].Metric != "ratio" || regs[1].Metric != "ratio" {
		t.Fatalf("regressions = %+v, want the two ratio gates", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "fp.mul.go ÷ fp.mul.generic") || !strings.Contains(s, "0.70") {
		t.Fatalf("String() = %q", s)
	}

	// The assembly's gate: Field.Mul no longer reaching mul8 costs what the
	// Go kernel costs. Where the assembly is not selected the ratio is
	// recorded as not applicable and is not held to the bound.
	asm := func(r BaselineRatio) *BaselineReport {
		rep := with(0.40, 0.81)
		rep.Ratios = append(rep.Ratios, r)
		return rep
	}
	if regs, err := CompareBaselines(ref, asm(BaselineRatio{Name: "fp.mul ÷ fp.mul.go", Value: 0.72}), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy assembly ratio flagged: %+v, %v", regs, err)
	}
	if regs, _ := CompareBaselines(ref, asm(BaselineRatio{Name: "fp.mul ÷ fp.mul.go", Value: 1.0}), 400); len(regs) != 1 || regs[0].RefNs != 0.85 {
		t.Fatalf("regressions = %+v, want the fp.mul ÷ fp.mul.go (0.85) gate", regs)
	}
	if regs, _ := CompareBaselines(ref, asm(BaselineRatio{Name: "fp.mul ÷ fp.mul.go", Value: 1.0, NA: true}), 400); len(regs) != 0 {
		t.Fatalf("a not-applicable ratio was held to its bound: %+v", regs)
	}

	// The token-boundary gates: the [q]· ladder back on ibe_token's decode
	// makes it cost what wire.g1 costs; InGT back on the ladder over q
	// reads 0.53–0.59 of a GT exponentiation, square-and-multiply 1.0.
	token := func(decode, ingt float64) *BaselineReport {
		r := with(0.40, 0.81)
		r.Ratios = append(r.Ratios,
			BaselineRatio{Name: "wire.pairing-arg ÷ wire.g1", Value: decode},
			BaselineRatio{Name: "gt.ingt ÷ gtexp.square-multiply", Value: ingt})
		return r
	}
	if regs, err := CompareBaselines(ref, token(0.33, 0.33), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy token ratios flagged: %+v, %v", regs, err)
	}
	if regs, _ := CompareBaselines(ref, token(1.0, 0.55), 400); len(regs) != 2 || regs[0].RefNs != 0.45 || regs[1].RefNs != 0.50 {
		t.Fatalf("regressions = %+v, want the gt.ingt (0.45) and wire.pairing-arg (0.50) gates", regs)
	}

	// The recombiner's optimistic round: asking every player again makes an
	// honest decryption cost what one past a crashed player costs.
	rounds := func(v float64) *BaselineReport {
		r := with(0.40, 0.81)
		r.Ratios = append(r.Ratios, BaselineRatio{Name: "cluster.decrypt.honest ÷ cluster.decrypt.escalated", Value: v})
		return r
	}
	if regs, err := CompareBaselines(ref, rounds(0.75), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy cluster ratio flagged: %+v, %v", regs, err)
	}
	if regs, _ := CompareBaselines(ref, rounds(1.0), 400); len(regs) != 1 || regs[0].RefNs != 0.90 {
		t.Fatalf("regressions = %+v, want the cluster.decrypt (0.90) gate", regs)
	}

	// The recombiner's hash and the field exponentiation: the cofactor
	// clearing back on an identity that is only paired against fixed keys
	// makes its hash cost what hash.to-g1 costs; Field.Exp back on plain
	// square-and-multiply costs ≈ 950 squarings' time.
	ladders := func(hash, exp float64) *BaselineReport {
		r := with(0.40, 0.81)
		r.Ratios = append(r.Ratios,
			BaselineRatio{Name: "hash.to-g1.arg ÷ hash.to-g1", Value: hash},
			BaselineRatio{Name: "fp.exp ÷ fp.square", Value: exp})
		return r
	}
	if regs, err := CompareBaselines(ref, ladders(0.30, 755), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy hash and exponentiation ratios flagged: %+v, %v", regs, err)
	}
	if regs, _ := CompareBaselines(ref, ladders(1.0, 950), 400); len(regs) != 2 || regs[0].RefNs != 850 || regs[1].RefNs != 0.55 {
		t.Fatalf("regressions = %+v, want the fp.exp (850) and hash.to-g1.arg (0.55) gates", regs)
	}

	// The b = 0 doubling: the generic a = 1 step back in the Miller walk
	// makes a plain pairing cost ≈ 2.3 replays, the generic ljDouble back
	// makes a w-NAF multiplication ≈ 1.27 of one.
	doublings := func(pair, wnaf float64) *BaselineReport {
		r := with(0.40, 0.81)
		r.Ratios = append(r.Ratios,
			BaselineRatio{Name: "pair ÷ pair.fixed", Value: pair},
			BaselineRatio{Name: "scalarmul.variable-wnaf ÷ pair.fixed", Value: wnaf})
		return r
	}
	if regs, err := CompareBaselines(ref, doublings(2.04, 1.04), 400); err != nil || len(regs) != 0 {
		t.Fatalf("healthy doubling ratios flagged: %+v, %v", regs, err)
	}
	if regs, _ := CompareBaselines(ref, doublings(2.30, 1.28), 400); len(regs) != 2 || regs[0].RefNs != 2.26 || regs[1].RefNs != 1.24 {
		t.Fatalf("regressions = %+v, want the pair (2.26) and scalarmul.variable-wnaf (1.24) gates", regs)
	}

	// A reference without ratios (older snapshot, hand-edited, recorded
	// with a -filter) does not switch the gates off.
	ref.Ratios = nil
	if regs, _ := CompareBaselines(ref, with(1.0, 1.0), 400); len(regs) != 2 {
		t.Fatalf("reference without ratios: regressions = %+v, want the two ratio gates", regs)
	}
}
