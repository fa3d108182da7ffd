package gf

import (
	"math/big"
	"testing"
)

// paperPHex and paperQHex are the 512-bit characteristic and 160-bit order of
// the committed "paper" parameter set — the field size every headline
// benchmark runs at — and the paperDense pair those of "paper_dense".
const (
	paperPHex      = "e6a30dc9bb2f27db4f2d112924218fa457702d317324509952984dbe937dd4f96ded3efffd8680e00e1780697ee844a3e981e0a4d64594888b2f7f881197f947"
	paperQHex      = "8000000000000000000000000000000000020001"
	paperDensePHex = "b282da5c02935d5836473139df6751ee8e1fb07c917309c04088843b36435876d65dd173ce4ac63f883c05a59ad3a134e30ef32607e2a49c71e515d4dcc47eef"
	paperDenseQHex = "d766107fb0eace0a6ccd9d42e9492ba8bf2298ed"
)

func benchField(b *testing.B) (*Field, *big.Int) {
	b.Helper()
	p, ok := new(big.Int).SetString(paperPHex, 16)
	if !ok {
		b.Fatal("bad paper prime literal")
	}
	f, err := NewField(p)
	if err != nil {
		b.Fatal(err)
	}
	return f, p
}

func benchElements(b *testing.B) (*Field, *Element, *Element) {
	f, p := benchField(b)
	x := f.NewElement(new(big.Int).Div(p, big.NewInt(3)), new(big.Int).Div(p, big.NewInt(5)))
	y := f.NewElement(new(big.Int).Div(p, big.NewInt(7)), new(big.Int).Div(p, big.NewInt(11)))
	return f, x, y
}

func BenchmarkMul(b *testing.B) {
	_, x, y := benchElements(b)
	out := new(Element)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkSquare(b *testing.B) {
	_, x, _ := benchElements(b)
	out := new(Element)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Square(x)
	}
}

func BenchmarkSquareUnitary(b *testing.B) {
	f, x, _ := benchElements(b)
	// Make x unitary: u = conj(x)/x is norm-1 for any nonzero x.
	inv, err := new(Element).Inverse(x)
	if err != nil {
		b.Fatal(err)
	}
	u := new(Element).Conjugate(x)
	u.Mul(u, inv)
	_ = f
	out := new(Element)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.SquareUnitary(u)
	}
}

func BenchmarkInverse(b *testing.B) {
	_, x, _ := benchElements(b)
	out := new(Element)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := out.Inverse(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	_, x, y := benchElements(b)
	out := new(Element)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Add(x, y)
	}
}
