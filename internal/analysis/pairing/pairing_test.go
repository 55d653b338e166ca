package pairing_test

import (
	"testing"

	"gflink/internal/analysis/analysistest"
	"gflink/internal/analysis/pairing"
)

func TestPairing(t *testing.T) {
	// dep is listed before poolsafe so its PoolSource facts are in the
	// store when the fixture that imports it is analyzed.
	analysistest.Run(t, analysistest.TestData(), pairing.Analyzer,
		"buflifecycle", "spanpair", "poolsafe/dep", "poolsafe")
}
