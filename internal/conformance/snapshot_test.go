package conformance

import (
	"bytes"
	"runtime"
	"testing"
)

// TestSnapshotResumeConformance is the acceptance pin for campaign
// snapshot/resume: a campaign paused every few rounds, snapshotted through
// the encode→decode round trip, torn down, and resumed must produce a
// transcript byte-identical to the uninterrupted campaign — at one worker
// and at N workers.
// Every seed pick, every mutated child, every coverage delta, and every
// oracle report must line up record for record.
func TestSnapshotResumeConformance(t *testing.T) {
	workersN := runtime.NumCPU()
	if workersN > 8 {
		workersN = 8
	}
	if workersN < 2 {
		workersN = 2
	}
	for name, comp := range diffContracts(t) {
		for _, workers := range []int{1, workersN} {
			opts := baseOptions(7, 400)
			opts.Workers = workers

			full := RecordCampaign(name, comp, opts)
			interrupted, err := RecordInterrupted(name, comp, opts, 2)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if d := Diff(full.Transcript, interrupted.Transcript); d != nil {
				t.Errorf("%s workers=%d: snapshot/resume transcript diverged: %s", name, workers, d)
				continue
			}
			if !bytes.Equal(full.Transcript.EncodeBytes(), interrupted.Transcript.EncodeBytes()) {
				t.Errorf("%s workers=%d: transcript bytes differ", name, workers)
			}
			// The interrupted transcript's claims must also hold on
			// independent re-execution, same as any recorded campaign's.
			if err := VerifySequences(interrupted.Campaign, interrupted.Transcript); err != nil {
				t.Errorf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
}
