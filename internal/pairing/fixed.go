package pairing

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/curve"
	"repro/internal/gf"
)

// Fixed parameter sets; tests re-verify bilinearity and non-degeneracy.
//
//   - toy:   |q| = 32,  |p| = 96  — unit/property tests that need thousands
//     of pairings. NOT secure; never use outside tests.
//   - fast:  |q| = 128, |p| = 256 — integration tests and examples.
//   - paper: |q| = 160, |p| = 512 — the sizes the paper compares against
//     1024-bit IB-mRSA ("one can currently have 512 or even 160 bits private
//     keys", §4.1), with the sparse order q = 2^159 + 2^17 + 1: a Miller
//     program of 160 lines instead of 239, one chord per Pair instead of 80.
//     It is one output of `pkgen -genparams -qbits 160 -pbits 512`.
//   - paper_dense: the same sizes with a random q of Hamming weight 82 — the
//     set "paper" named before, kept because golden vectors and KATs pin it.
//
// toy, fast and paper_dense came from the earlier Generate, which drew q at
// random. The sparse q costs no security: Pollard rho does not see the form
// of q, and p = h·q − 1 stays dense through its random cofactor h, so the
// number field sieve on F_p² gets no special form either.
type fixedSet struct {
	name         string
	p, q, gx, gy string
}

var fixedSets = map[string]fixedSet{
	"toy": {
		name: "toy",
		p:    "c88410b59ac4fa20d9a0256b",
		q:    "fd51d491",
		gx:   "439642cb788f04772522a06e",
		gy:   "b0f96e67ff762fadf0f943bb",
	},
	"fast": {
		name: "fast",
		p:    "db19579dd2a906bb3f2f4f74c236e52c70115d99c09f7c474e96cdbe63e4da07",
		q:    "e10324209a11be3de5ba91918d7c367d",
		gx:   "b1a03d1eeb0fc48c577f8e57589b19bb6dabb28efe2320ca70b89e946156eeef",
		gy:   "4d7b0d2756afb0dd83d8aa8a2a66f6cb69bb0ca63aae1e9e82652d6221ac8e9c",
	},
	"paper": {
		name: "paper",
		p:    "e6a30dc9bb2f27db4f2d112924218fa457702d317324509952984dbe937dd4f96ded3efffd8680e00e1780697ee844a3e981e0a4d64594888b2f7f881197f947",
		q:    "8000000000000000000000000000000000020001",
		gx:   "187204c821a13de583cc3b5cdd353574ae83e631c077b8e4f4da4f5da113f35d2f56426b5d681e301296e576250f026dedef345ac07f5fabc0671cf4a9133fef",
		gy:   "be6d271243979ad814f2357f9da6ad4ff8228fb9ba0dde9d2ebb176ad99cee8ed50f37826e5730f5d46a353c249207936c045806358f218436a07c765ec3e213",
	},
	"paper_dense": {
		name: "paper_dense",
		p:    "b282da5c02935d5836473139df6751ee8e1fb07c917309c04088843b36435876d65dd173ce4ac63f883c05a59ad3a134e30ef32607e2a49c71e515d4dcc47eef",
		q:    "d766107fb0eace0a6ccd9d42e9492ba8bf2298ed",
		gx:   "46a67b1ebf67cc2e1d4eccd007c264f52a9eedee98368190842a1445eaf78511ef000fab6edf3a9b09b36691914f114c13063aef9f9bb877e324158e18965153",
		gy:   "17603521cbdc731424ee3aae867d4a5625f73d148f517159289e80b4c5599a7a0061a0b6cd9fbb124ef8bef644edcd7ccc5185145d6453c001b8800e41f3724a",
	},
}

var (
	fixedOnce  sync.Once
	fixedCache map[string]*Params
	fixedErr   error
)

func loadFixed() {
	fixedCache = make(map[string]*Params, len(fixedSets))
	for key, fs := range fixedSets {
		pp, err := buildFixed(fs)
		if err != nil {
			fixedErr = fmt.Errorf("fixed parameter set %q: %w", key, err)
			return
		}
		fixedCache[key] = pp
	}
}

func buildFixed(fs fixedSet) (*Params, error) {
	p, ok := new(big.Int).SetString(fs.p, 16)
	if !ok {
		return nil, fmt.Errorf("bad p constant")
	}
	q, ok := new(big.Int).SetString(fs.q, 16)
	if !ok {
		return nil, fmt.Errorf("bad q constant")
	}
	gx, ok := new(big.Int).SetString(fs.gx, 16)
	if !ok {
		return nil, fmt.Errorf("bad gx constant")
	}
	gy, ok := new(big.Int).SetString(fs.gy, 16)
	if !ok {
		return nil, fmt.Errorf("bad gy constant")
	}
	cv, err := curve.New(p, q)
	if err != nil {
		return nil, err
	}
	fld, err := gf.NewField(p)
	if err != nil {
		return nil, err
	}
	gen, err := cv.NewPoint(gx, gy)
	if err != nil {
		return nil, err
	}
	if !gen.InSubgroup() {
		return nil, fmt.Errorf("generator escapes order-q subgroup")
	}
	return newParams(cv, fld, gen, fs.name)
}

func fixed(name string) (*Params, error) {
	fixedOnce.Do(loadFixed)
	if fixedErr != nil {
		return nil, fixedErr
	}
	return fixedCache[name], nil
}

// Toy returns the 32/96-bit test-only parameter set. It fails only if the
// embedded constants were corrupted.
func Toy() (*Params, error) { return fixed("toy") }

// Fast returns the 128/256-bit parameter set used by integration tests and
// examples.
func Fast() (*Params, error) { return fixed("fast") }

// Paper returns the 160/512-bit parameter set matching the sizes the paper
// uses when comparing the mediated IBE and GDH schemes against 1024-bit
// IB-mRSA.
func Paper() (*Params, error) { return fixed("paper") }

// ByName returns a fixed parameter set by its label ("toy", "fast",
// "paper", "paper_dense").
func ByName(name string) (*Params, error) {
	fixedOnce.Do(loadFixed)
	if fixedErr != nil {
		return nil, fixedErr
	}
	pp, ok := fixedCache[name]
	if !ok {
		return nil, fmt.Errorf("pairing: unknown parameter set %q", name)
	}
	return pp, nil
}
