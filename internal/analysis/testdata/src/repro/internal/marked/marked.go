// Package marked carries //cryptolint: comments, in the vocabulary and out of
// it. The marker check runs before any analyzer, so the fixture needs none.
package marked

// Known is a sanctioned variable-time domain.
//
//cryptolint:vartime (a known marker is no finding)
func Known() {}

// Misspelt carries a marker no analyzer reads, which escapes nothing.
//
//cryptolint:vartme (misspelt) // want `unknown marker //cryptolint:vartme; the vocabulary is secret, public, hotpath, vartime, nodeadline, panic-ok`
func Misspelt() {}

// Bare carries the prefix alone.
func Bare() {
	_ = 0 //cryptolint: // want `unknown marker //cryptolint:;`
}

// Prose mentions a marker inside a sentence: // cryptolint:stale is no marker,
// and neither is a doc line about //cryptolint:stale.
func Prose() {}
