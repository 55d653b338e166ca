// This directory holds no code: the spanpair rule is now a row of the
// pairing analyzer. This test keeps the spanpair fixture, which moved to
// pairing's testdata, running on its own under its original name.
package spanpair_test

import (
	"path/filepath"
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/pairing"
)

func TestSpanpair(t *testing.T) {
	testdata, err := filepath.Abs(filepath.Join("..", "pairing", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, testdata, pairing.Analyzer, "spanpair")
}
