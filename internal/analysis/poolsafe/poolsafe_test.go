// This directory holds no code: the poolsafe rule is now a row of the
// pairing analyzer. This test keeps the poolsafe fixture, which moved to
// pairing's testdata, running on its own under its original name.
package poolsafe_test

import (
	"path/filepath"
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/pairing"
)

func TestPoolsafe(t *testing.T) {
	testdata, err := filepath.Abs(filepath.Join("..", "pairing", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, testdata, pairing.Analyzer, "poolsafe/dep", "poolsafe")
}
