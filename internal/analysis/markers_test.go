package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestUnknownMarkers runs an analyzer that reports nothing, so every finding
// is the shared marker check's.
func TestUnknownMarkers(t *testing.T) {
	silent := &analysis.Analyzer{Name: "silent", Run: func(*analysis.Pass) error { return nil }}
	analysistest.Run(t, "testdata", silent, "repro/internal/marked")
}
