package fuzz

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mufuzz/internal/corpus"
)

// TestReorderBufferUnderGOMAXPROCSChurn stresses the round engine's reorder
// buffer while another goroutine thrashes GOMAXPROCS between 1 and NumCPU:
// completions land in wildly shifting orders (including fully serial ones),
// and under -race the test doubles as the data-race gate for the
// pool/reorder handshake. The 4-worker fingerprint must match the 1-worker
// reference byte for byte.
func TestReorderBufferUnderGOMAXPROCSChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn stress is slow")
	}
	comp := mustCompile(t, corpus.CrowdsaleBuggy())
	opts := Options{Strategy: MuFuzz(), Seed: 3, Iterations: 400, Workers: 1}
	want := resultFingerprint(Run(comp, opts))
	opts.Workers = 4

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				runtime.GOMAXPROCS(1)
			} else {
				runtime.GOMAXPROCS(prev)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for round := 0; round < 3; round++ {
		got := resultFingerprint(Run(comp, opts))
		if got != want {
			t.Fatalf("round %d: fingerprint moved under GOMAXPROCS churn\n--- want\n%s\n--- got\n%s", round, want, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPipelineScalingSmoke is the CI multi-core gate: on a machine with at
// least two CPUs, the engine at workers=2 must beat the same engine at
// workers=1 — parallel is never slower than sequential.
// Self-skips unless MUFUZZ_SCALING_SMOKE=1 (throughput measurement has no
// place in the default unit-test wall clock) or when the host is
// single-core, where the assertion is unfalsifiable.
func TestPipelineScalingSmoke(t *testing.T) {
	if os.Getenv("MUFUZZ_SCALING_SMOKE") == "" {
		t.Skip("set MUFUZZ_SCALING_SMOKE=1 to run the scaling gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU(s); scaling is unmeasurable", runtime.NumCPU())
	}
	comp := mustCompile(t, corpus.Crowdsale())
	const iters = 20000
	measure := func(workers int) float64 {
		best := 0.0
		// Three trials, best-of: absorbs scheduler noise on shared CI runners.
		for trial := 0; trial < 3; trial++ {
			c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: iters, Workers: workers})
			start := time.Now()
			res := c.Run()
			if eps := float64(res.Executions) / time.Since(start).Seconds(); eps > best {
				best = eps
			}
		}
		return best
	}
	e1 := measure(1)
	e2 := measure(2)
	t.Logf("workers=1: %.0f execs/s, workers=2: %.0f execs/s (%.2fx)", e1, e2, e2/e1)
	if e2 <= e1 {
		t.Errorf("workers=2 (%.0f execs/s) does not beat workers=1 (%.0f execs/s)", e2, e1)
	}
}
