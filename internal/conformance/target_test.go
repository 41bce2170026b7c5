package conformance

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/keccak"
)

// targetGoldenHashes pins the keccak256 of each diff contract's transcript
// recorded through the Target interface (minisol adapter, MuFuzz preset,
// seed 5, 200 iterations). Regenerated when the engine moved to a single
// round engine, a single generator, and transcript format v2. Regenerate with
// MUFUZZ_GOLDEN_REGEN=1 after an intentional behavior change.
var targetGoldenHashes = map[string]string{
	"crowdsale":         "9c97444b238d0c440a45acbce72c3351b9e746e1509c63c6908d782a41283ea9",
	"crowdsale-buggy":   "6001f0ae7c3783e9438f4cb6b60e26080a2d0222081da00326b08a43db98a4d0",
	"re_swc107_crossfn": "079cc0a5e0774f6cf8ff333d8346d4cdcd937b01810e0b76a693f15985d62a6a",
}

// TestTargetAdapterConformance pins the Target refactor three ways: a
// campaign recorded through the explicit minisol adapter must be
// byte-identical to one recorded through the classic compiled-contract
// entry point, must replay byte-identically on a detached engine, and must
// hash to the committed golden — so the adapter cannot drift from the
// pre-refactor engine without tripping a diff here.
func TestTargetAdapterConformance(t *testing.T) {
	regen := os.Getenv("MUFUZZ_GOLDEN_REGEN") != ""
	for name, comp := range diffContracts(t) {
		t.Run(name, func(t *testing.T) {
			opts := baseOptions(5, 200)

			classic := RecordCampaign(name, comp, opts)
			adapter := RecordTargetCampaign(name, fuzz.MinisolTarget(comp), opts)

			a, b := classic.Transcript.EncodeBytes(), adapter.Transcript.EncodeBytes()
			if !bytes.Equal(a, b) {
				d := Diff(classic.Transcript, adapter.Transcript)
				t.Fatalf("adapter transcript diverged from classic entry point: %v", d)
			}

			if _, d := ReplayCheck(comp, adapter.Transcript); d != nil {
				t.Fatalf("adapter transcript does not replay: %v", d)
			}

			sum := keccak.Sum256(b)
			got := hex.EncodeToString(sum[:])
			if regen {
				t.Logf("golden transcript hash %q: %s", name, got)
				return
			}
			if want := targetGoldenHashes[name]; got != want {
				t.Errorf("transcript hash drifted from golden\n got %s\nwant %s", got, want)
			}
		})
	}
}
