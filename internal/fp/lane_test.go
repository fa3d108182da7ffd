package fp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// needLanes skips a test of the lane engine where it cannot run, naming
// the CPUID or XCR0 bit that is missing, and selects it for the test where
// it can.
func needLanes(t testing.TB) {
	t.Helper()
	if laneMissing != "" {
		t.Skip("the lane engine is not selected here: " + laneMissing)
	}
	was := useLanes
	setLanes(true)
	t.Cleanup(func() { setLanes(was) })
}

// TestKernel logs the field kernels this process runs on and checks that
// Kernel names the selection: CI prints it, so a runner's log says whether
// the lanes ran there.
func TestKernel(t *testing.T) {
	want := "go"
	if useAsm {
		want = "amd64-adx"
	}
	if useLanes {
		want = "amd64-adx+ifma"
	}
	if Kernel() != want {
		t.Fatalf("Kernel() = %q, want %q", Kernel(), want)
	}
	t.Logf("fp kernel %s", Kernel())
	if laneMissing != "" {
		t.Logf("no lane engine: %s", laneMissing)
	}
}

// laneMul multiplies x and y, lane l holding the pair (x[l], y[l]) of
// lane-form values (integers below 2^520), and returns the eight products
// as integers.
func laneMul(f *Field, x, y [8]*big.Int) (z [8]*big.Int) {
	var xv, yv, zv laneVec
	for l := range x {
		var e [laneLimbs]uint64
		bigRadix52(&e, x[l])
		xv.set(l, &e)
		bigRadix52(&e, y[l])
		yv.set(l, &e)
	}
	laneMul8(&zv, &xv, &yv, f.lanes)
	for l := range z {
		z[l] = new(big.Int)
		for j := laneLimbs - 1; j >= 0; j-- {
			z[l].Lsh(z[l], 52).Or(z[l], new(big.Int).SetUint64(zv[8*j+l]))
		}
	}
	return z
}

// laneProduct is Field.Mul through the lane engine: a and b (Montgomery
// form) into lane form, the lane product, and back.
func laneProduct(f *Field, z, a, b []uint64) {
	var av, bv, zv laneVec
	var t [8]uint64
	var e [laneLimbs]uint64
	f.Mul(t[:], a, f.lanes.toLane[:])
	radix52(&e, t[:])
	av.set(3, &e)
	f.Mul(t[:], b, f.lanes.toLane[:])
	radix52(&e, t[:])
	bv.set(3, &e)
	laneMul8(&zv, &av, &bv, f.lanes)
	for l := 0; l < 8; l++ {
		bv.set(l, &f.lanes.one)
	}
	laneMul8(&zv, &zv, &bv, f.lanes)
	f.fromLane(z, &zv, 3)
}

// TestLaneProduct holds every lane of the lane product to x·y·2^−520 mod p
// in math/big, and its result to the bound 2p, at the four 8-limb test
// moduli: boundary values (0, 1, p − 1 and the rest of boundaryValues), the
// same values plus p — lane form takes any representative below 2p, which
// is what a product hands the next — and random ones, a different pair in
// each lane. Through the conversions in and out of lane form the product
// is Field.Mul, limb for limb.
func TestLaneProduct(t *testing.T) {
	needLanes(t)
	rng := rand.New(rand.NewSource(41))
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb"} {
		t.Run(name, func(t *testing.T) {
			f, p := mustField(t, name)
			p2 := new(big.Int).Lsh(p, 1)
			rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 520), p)
			var vals []*big.Int
			for _, v := range boundaryValues(p) {
				vals = append(vals, v, new(big.Int).Add(v, p))
			}
			for range 64 {
				vals = append(vals, new(big.Int).Rand(rng, p2))
			}
			var x, y [8]*big.Int
			n := 0
			flush := func() {
				for l := n; l < 8; l++ {
					x[l], y[l] = x[0], y[0]
				}
				z := laneMul(f, x, y)
				for l := 0; l < n; l++ {
					want := new(big.Int).Mul(x[l], y[l])
					want.Mul(want, rInv).Mod(want, p)
					if z[l].Cmp(p2) >= 0 || new(big.Int).Mod(z[l], p).Cmp(want) != 0 {
						t.Fatalf("lane %d: %x·%x = %x, want %x mod p, below 2p", l, x[l], y[l], z[l], want)
					}
				}
				n = 0
			}
			for _, a := range vals {
				for _, b := range vals {
					x[n], y[n] = a, b
					if n++; n == 8 {
						flush()
					}
				}
			}
			flush()

			za, zb, want := f.NewElt(), f.NewElt(), f.NewElt()
			for _, a := range vals {
				if a.Cmp(p) >= 0 {
					continue
				}
				limbsFromBig(za, a)
				for _, b := range vals[:8] {
					if b.Cmp(p) >= 0 {
						continue
					}
					limbsFromBig(zb, b)
					f.Mul(want, za, zb)
					laneProduct(f, zb, za, zb)
					if !f.Equal(zb, want) {
						t.Fatalf("lane product of %x and %x is not Field.Mul's", a, b)
					}
					limbsFromBig(zb, b)
				}
			}
		})
	}
}

// replayRef is ReplayJ on the scalar field operations, the formulas of
// gf.Element.SquareJ and MulLineJ, with the lane engine's factor 2^−8 per
// step that does anything.
func replayRef(f *Field, kinds []byte, lines, x, s []uint64) (a, b []uint64) {
	a, b = f.NewElt(), f.NewElt()
	f.SetOne(a)
	c, A, B, D, l := f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt()
	limbsFromBig(c, new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 504), f.pBig))
	k := 0
	for _, kd := range kinds {
		if kd&1 != 0 {
			f.Square(A, a)
			f.Square(B, b)
			f.Mul(B, B, s)
			f.Mul(D, a, b)
			f.Sub(a, A, B)
			f.Add(b, D, D)
		}
		if kd&2 != 0 {
			beta, alpha := lines[16*k:16*k+8], lines[16*k+8:16*k+16]
			k++
			f.Mul(l, alpha, x)
			f.Add(l, l, beta)
			f.Mul(A, a, l)
			f.Mul(B, b, s)
			f.Mul(D, b, l)
			f.Sub(A, A, B)
			f.Add(b, a, D)
			f.Set(a, A)
		}
		if kd != 0 {
			f.Mul(a, a, c)
			f.Mul(b, b, c)
		}
	}
	return a, b
}

// randProgram returns steps step kinds — mostly square-and-fold, with
// every other kind mixed in — and random lines for them.
func randProgram(f *Field, rng *rand.Rand, steps int) ([]byte, []uint64) {
	kinds := make([]byte, steps)
	var lines []uint64
	for i := range kinds {
		kinds[i] = 3
		if rng.Intn(4) == 0 {
			kinds[i] = byte(rng.Intn(4))
		}
		if kinds[i]&2 != 0 {
			for range 2 {
				lines = append(lines, randElt(f, rng)...)
			}
		}
	}
	return kinds, lines
}

func randElt(f *Field, rng *rand.Rand) []uint64 {
	z := f.NewElt()
	limbsFromBig(z, new(big.Int).Rand(rng, f.pBig))
	return z
}

// TestReplayJMatchesScalar holds the one-call lane replay to replayRef on
// random programs — every step kind, line counts on and off a multiple of
// eight so the last line group is full and partial — at the four 8-limb
// test moduli, and checks that a program whose lines run short, or with an
// unknown step kind, is refused.
func TestReplayJMatchesScalar(t *testing.T) {
	needLanes(t)
	rng := rand.New(rand.NewSource(39))
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb"} {
		f, _ := mustField(t, name)
		for _, steps := range []int{0, 1, 2, 7, 8, 9, 23, 161, 240} {
			t.Run(fmt.Sprintf("%s/%d", name, steps), func(t *testing.T) {
				kinds, lines := randProgram(f, rng, steps)
				x, s := randElt(f, rng), randElt(f, rng)
				a, b := f.NewElt(), f.NewElt()
				if !f.ReplayJ(a, b, kinds, lines, x, s) {
					t.Fatal("ReplayJ refused a well-formed program")
				}
				wa, wb := replayRef(f, kinds, lines, x, s)
				if !f.Equal(a, wa) || !f.Equal(b, wb) {
					t.Fatalf("ReplayJ = (%x, %x), want (%x, %x)", a, b, wa, wb)
				}
				if len(lines) > 0 && f.ReplayJ(a, b, kinds, lines[:len(lines)-1], x, s) {
					t.Fatal("ReplayJ accepted a program one word short")
				}
			})
		}
		if f.ReplayJ(f.NewElt(), f.NewElt(), []byte{4}, nil, f.one, f.one) {
			t.Fatal("ReplayJ accepted step kind 4")
		}
	}
}

// BenchmarkLanes times one lane product with 2, 5 and 8 lanes carrying
// work (the instruction stream is the same), ReplayJ over a 160-step
// square-and-fold program — the paper set's token — WalkJ over 160
// doubling steps, a plain pairing's walk, and LucasLadder over a
// 352-bit exponent, the paper set's final exponentiation, alone and four
// at once (LucasLadders), on the lanes and on the MULX ladder.
func BenchmarkLanes(b *testing.B) {
	needLanes(b)
	f, p := mustField(b, "paper-8limb")
	rng := rand.New(rand.NewSource(1))
	for _, used := range []int{2, 5, 8} {
		var x, y, z laneVec
		for l := 0; l < used; l++ {
			var e [laneLimbs]uint64
			radix52(&e, randElt(f, rng))
			x.set(l, &e)
			y.set(l, &e)
		}
		b.Run(fmt.Sprintf("mul/%d-lanes", used), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				laneMul8(&z, &x, &y, f.lanes)
			}
		})
	}
	kinds := make([]byte, 160)
	var lines []uint64
	for i := range kinds {
		kinds[i] = 3
		lines = append(lines, randElt(f, rng)...)
		lines = append(lines, randElt(f, rng)...)
	}
	x, s, za, zb := randElt(f, rng), randElt(f, rng), f.NewElt(), f.NewElt()
	b.Run("replay/lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.ReplayJ(za, zb, kinds, lines, x, s)
		}
	})
	X, Y, Z := randElt(f, rng), randElt(f, rng), randElt(f, rng)
	b.Run("walk/lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.WalkJ(X, Y, Z, za, zb, x, s, 160)
		}
	})
	root := new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2)
	for _, n := range []int{1, 3, 8} {
		zs, xs := make([][]uint64, n), make([][]uint64, n)
		for i := range xs {
			zs[i], xs[i] = f.NewElt(), randElt(f, rng)
		}
		b.Run(fmt.Sprintf("root%d/lanes", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ExpEach(zs, xs, root)
			}
		})
	}
	e := new(big.Int).Rsh(p, 160)
	vk, vk1, v1 := make([][]uint64, MaxLadders), make([][]uint64, MaxLadders), make([][]uint64, MaxLadders)
	for m := range v1 {
		vk[m], vk1[m], v1[m] = f.NewElt(), f.NewElt(), randElt(f, rng)
	}
	for _, lanes := range []bool{true, false} {
		b.Run(fmt.Sprintf("ladder/lanes=%v", lanes), func(b *testing.B) {
			setLanes(lanes)
			for i := 0; i < b.N; i++ {
				f.LucasLadder(za, zb, x, e)
			}
		})
		b.Run(fmt.Sprintf("ladder4/lanes=%v", lanes), func(b *testing.B) {
			setLanes(lanes)
			for i := 0; i < b.N; i++ {
				f.LucasLadders(vk, vk1, v1, e, e.BitLen())
			}
		})
	}
}

// walkRef is WalkJ on the scalar field operations: steps doubling steps,
// each the b = 0 doubling of (X, Y, Z), the square of a + b·j and the fold
// of the tangent's line, with the products of pairing's doubleStep and of
// gf.Element.SquareJ and MulJ.
func walkRef(f *Field, X, Y, Z, a, b, x, s []uint64, steps int) {
	A, C, ZZ, E, K, W, la, lb, lc, U, V, t := f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt(), f.NewElt()
	for range steps {
		f.Square(A, X)
		f.Square(ZZ, Z)
		f.Mul(Z, Y, Z)
		f.Double(Z, Z)
		f.Square(C, ZZ)
		f.Mul(lc, Z, ZZ)
		f.Sub(E, A, C)
		f.Double(K, A)
		f.Add(K, K, A)
		f.Add(K, K, C)
		f.Mul(W, A, C)
		f.Double(W, W)
		f.Double(W, W)
		f.Double(W, W)
		f.Mul(la, X, E)
		f.Square(X, E)
		f.Add(W, W, X)
		f.Mul(lb, K, ZZ)
		f.Mul(Y, E, W)
		// f ← f²·(L + c·j), L = a + b·x
		f.Mul(lb, lb, x)
		f.Add(la, la, lb)
		f.Square(U, a)
		f.Square(t, b)
		f.Mul(t, t, s)
		f.Sub(U, U, t)
		f.Mul(V, a, b)
		f.Double(V, V)
		f.Mul(a, U, la)
		f.Mul(t, V, lc)
		f.Mul(t, t, s)
		f.Sub(a, a, t)
		f.Mul(b, U, lc)
		f.Mul(t, V, la)
		f.Add(b, b, t)
	}
}

// TestWalkJMatchesScalar holds the lane walk to walkRef from random states
// and from boundary ones (0, 1, p − 1 and the rest of boundaryValues in
// every coordinate), for runs of 1 to 160 steps at the four 8-limb test
// moduli, and checks that Z = 0 or Y = 0 at the start leaves Z = 0.
func TestWalkJMatchesScalar(t *testing.T) {
	needLanes(t)
	rng := rand.New(rand.NewSource(44))
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb"} {
		f, p := mustField(t, name)
		bv := boundaryValues(p)
		check := func(t *testing.T, in [7][]uint64, steps int) {
			var got, want [7][]uint64
			for i := range in {
				got[i], want[i] = f.NewElt(), f.NewElt()
				copy(got[i], in[i])
				copy(want[i], in[i])
			}
			if !f.WalkJ(got[0], got[1], got[2], got[3], got[4], got[5], got[6], steps) {
				t.Fatal("WalkJ did not run on the lanes")
			}
			walkRef(f, want[0], want[1], want[2], want[3], want[4], want[5], want[6], steps)
			for i := range 5 {
				if !f.Equal(got[i], want[i]) {
					t.Fatalf("%d steps from %x: coordinate %d is %x, want %x", steps, in, i, got[i], want[i])
				}
			}
		}
		for _, steps := range []int{1, 2, 17, 142, 160} {
			t.Run(fmt.Sprintf("%s/%d", name, steps), func(t *testing.T) {
				var in [7][]uint64
				for i := range in {
					in[i] = randElt(f, rng)
				}
				check(t, in, steps)
			})
		}
		t.Run(name+"/boundary", func(t *testing.T) {
			for k := range 7 * len(bv) {
				var in [7][]uint64
				for i := range in {
					in[i] = randElt(f, rng)
				}
				in[k%7] = f.NewElt()
				limbsFromBig(in[k%7], bv[k/7])
				check(t, in, 3)
			}
		})
		t.Run(name+"/exceptional", func(t *testing.T) {
			for _, zeroed := range []int{1, 2} {
				var in [7][]uint64
				for i := range in {
					in[i] = randElt(f, rng)
				}
				f.SetZero(in[zeroed])
				Z := in[2]
				f.WalkJ(in[0], in[1], Z, in[3], in[4], in[5], in[6], 5)
				if !f.IsZero(Z) {
					t.Fatalf("coordinate %d zero at the start: Z = %x after 5 steps, want 0", zeroed, Z)
				}
			}
		})
	}
}

// TestLucasLaddersMatchOneByOne holds LucasLadders, one to four ladders over
// one exponent, to lucasRef run ladder by ladder, on every kernel: exponents
// 0, 1, 2, 2^k and random ones, each walked over its own bit length and over
// a fixed count with leading zeros (|q| = 160 for the exponents below it,
// as a secret nonce's are), at the four 8-limb test moduli and the
// any-width loop. LucasDoublings is held to d squarings of each value, for
// one to four values.
func TestLucasLaddersMatchOneByOne(t *testing.T) {
	eachKernel(t, testLucasLadders)
}

func testLucasLadders(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb", "toy-2limb"} {
		f, p := mustField(t, name)
		mont := func(v *big.Int) []uint64 {
			z := f.NewElt()
			m := new(big.Int).Lsh(v, uint(64*f.Limbs()))
			limbsFromBig(z, m.Mod(m, p))
			return z
		}
		exps := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Lsh(big.NewInt(1), 17),
			new(big.Int).Lsh(big.NewInt(1), 159), new(big.Int).Rsh(p, 160), new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 160))}
		for _, k := range exps {
			for _, bits := range []int{k.BitLen(), max(k.BitLen(), 160), k.BitLen() + 70} {
				for n := 1; n <= MaxLadders; n++ {
					vs := make([]*big.Int, n)
					v1, vk, vk1 := make([][]uint64, n), make([][]uint64, n), make([][]uint64, n)
					for m := range vs {
						vs[m] = new(big.Int).Rand(rng, p)
						if m == 1 {
							vs[m] = big.NewInt(2) // the trace of 1
						}
						v1[m], vk[m], vk1[m] = mont(vs[m]), f.NewElt(), f.NewElt()
					}
					f.LucasLadders(vk, vk1, v1, k, bits)
					for m := range vs {
						wk, wk1 := lucasRef(vs[m], k, p)
						if !f.Equal(vk[m], mont(wk)) || !f.Equal(vk1[m], mont(wk1)) {
							t.Fatalf("%s: ladder %d of %d, k = %v over %d bits: (V_k, V_(k+1)) differs from one ladder", name, m, n, k, bits)
						}
					}
				}
			}
		}
		for _, d := range []int{0, 1, 17, 142} {
			for n := 1; n <= MaxLadders; n++ {
				v, want := make([][]uint64, n), make([][]uint64, n)
				for m := range v {
					v[m] = mont(new(big.Int).Rand(rng, p))
					want[m] = append([]uint64(nil), v[m]...)
					for range d {
						f.Square(want[m], want[m])
						f.Sub(want[m], want[m], f.two)
					}
				}
				f.LucasDoublings(v, d)
				for m := range v {
					if !f.Equal(v[m], want[m]) {
						t.Fatalf("%s: LucasDoublings value %d of %d, d = %d, differs from d squarings", name, m, n, d)
					}
				}
			}
		}
	}
}

// TestExpEachMatchesExp holds ExpEach to Exp, element for element, at the
// four 8-limb moduli and a 2-limb one, on every kernel: 1 to 9 bases per
// call (one walk, a full one, and a full one plus a lone base), the
// exponent the square root uses, (p+1)/4, a random one and 1, and bases
// among 0, 1, p − 1, a non-residue and random values, repeated so that
// equal bases sit in different lanes.
func TestExpEachMatchesExp(t *testing.T) {
	eachKernel(t, testExpEach)
}

func testExpEach(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, name := range []string{"paper-8limb", "lazy-8limb", "spare2-8limb", "max-8limb", "toy-2limb"} {
		f, p := mustField(t, name)
		mont := func(v *big.Int) []uint64 {
			z := f.NewElt()
			m := new(big.Int).Lsh(v, uint(64*f.Limbs()))
			limbsFromBig(z, m.Mod(m, p))
			return z
		}
		nonResidue := big.NewInt(2)
		for big.Jacobi(nonResidue, p) != -1 {
			nonResidue.Add(nonResidue, big.NewInt(1))
		}
		pool := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), nonResidue}
		sqrtExp := new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2)
		for _, e := range []*big.Int{sqrtExp, new(big.Int).Rand(rng, p), big.NewInt(1)} {
			for n := 1; n <= MaxExpLanes+1; n++ {
				xs, zs, want := make([][]uint64, n), make([][]uint64, n), make([][]uint64, n)
				for i := range xs {
					v := new(big.Int).Rand(rng, p)
					if k := rng.Intn(2 * len(pool)); k < len(pool) {
						v = pool[k]
					}
					xs[i], zs[i], want[i] = mont(v), f.NewElt(), f.NewElt()
					f.Exp(want[i], xs[i], e)
				}
				f.ExpEach(zs, xs, e)
				for i := range xs {
					if !f.Equal(zs[i], want[i]) {
						t.Fatalf("%s: base %d of %d, e = %x: ExpEach differs from Exp", name, i, n, e)
					}
				}
				f.ExpEach(xs, xs, e) // in place
				for i := range xs {
					if !f.Equal(xs[i], want[i]) {
						t.Fatalf("%s: base %d of %d in place: ExpEach differs from Exp", name, i, n)
					}
				}
			}
		}
	}
}
