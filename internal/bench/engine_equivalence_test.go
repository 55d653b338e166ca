package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gflink/internal/obs"
)

// frozenTraceDigests are the SHA-256 digests of each experiment's Chrome
// trace at testScale, recorded from the legacy engine — the pre-batching
// one-timer-per-dispatch vclock dispatcher — before it was deleted. The
// batched engine reproduced every one byte for byte at GOMAXPROCS=1 and
// at the default. Pinning them as literals keeps the oracle's strength
// (byte identity against the pre-batching engine) without keeping that
// engine around. Like workloads.eagerGolden, a digest is never
// re-recorded to make a change pass; any re-record must be justified in
// CHANGES.md.
var frozenTraceDigests = map[string]string{
	"fig8a":            "b3bc14ea932a19fdaf61edc47d6dd047a81a18f514ac7c4277d1ab30db7d5152",
	"abl-backpressure": "ff523e0f65f8b0737be757558092816308ae2e45587a9a6db3da244600066ecc",
	"abl-oocore":       "02f038f5a11707defbdd5490498edac3fc4e097535bb033e112f2b0cc4fab71c",
	"fig5a":            "183bf9b5bebb5e82cda5b3fec31f08e814d720909114b83c2809d868d1879293",
}

// TestBatchedDispatchMatchesLegacyTraces is the equivalence gate on the
// batched vclock dispatcher: on full experiment workloads (fig8a's two
// SpMV deployments, the six streaming backpressure cells, the tiered
// memory sweep and fig5a's WordCount sizes), the trace must hash to the
// frozen digest. Any divergence means a wake order or a simulated
// timestamp changed — exactly the regression the FIFO-by-seq invariant
// forbids.
func TestBatchedDispatchMatchesLegacyTraces(t *testing.T) {
	for _, id := range []string{"fig8a", "abl-backpressure", "abl-oocore", "fig5a"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		_, procs := RunTraced(e, testScale)
		data, err := obs.ChromeTrace(procs...)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got, want := hex.EncodeToString(sum[:]), frozenTraceDigests[id]; got != want {
			t.Errorf("%s: trace digest %s, frozen digest %s (%d trace bytes); "+
				"a wake order or simulated time changed — re-recording a digest must be justified in CHANGES.md",
				id, got, want, len(data))
		}
	}
}
