package analysis_test

import (
	"testing"

	"wwt/internal/analysis"
	"wwt/internal/analysis/analysistest"
)

func TestReflectSort(t *testing.T) {
	// The hot fixtures' import paths suffix-match internal/index and
	// internal/consolidate; the cold fixture matches no hot package and
	// must stay silent.
	analysistest.Run(t, analysistest.TestData(), analysis.ReflectSort,
		"reflectsorthot/internal/index", "reflectsorthot/internal/consolidate", "reflectsortcold")
}
