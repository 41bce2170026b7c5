package fuzz

import (
	"runtime"
	"testing"

	"mufuzz/internal/corpus"
)

// warmedLongest runs a short campaign on src, so everything the executor
// pools or caches is warm (IR programs compiled, frame/state pools
// populated, prefix cache filled), and returns it with its longest queue
// sequence: more transactions per execution means more chances for a
// per-transaction allocation to show up in an average.
func warmedLongest(tb testing.TB, src string) (*Campaign, Sequence) {
	tb.Helper()
	comp := mustCompile(tb, src)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 400})
	c.Run()
	seqs := c.QueueSequences()
	if len(seqs) == 0 {
		tb.Fatal("campaign produced no queue sequences")
	}
	seq := seqs[0]
	for _, s := range seqs {
		if len(s) > len(seq) {
			seq = s
		}
	}
	return c, seq
}

// complexSource is a generated complex contract, the shape of the contracts
// deep campaigns fuzz (corpus.GenerateComplex with the benchmark's corpus
// seed).
func complexSource() string { return corpus.GenerateComplex(1, 1)[0].Source }

// TestExecuteAllocGate pins the steady-state allocation budget of the hot
// path: after a warmed-up campaign, executing a queue sequence must stay
// within a fixed allocation budget. This is the regression gate behind the
// "zero-alloc hot path" work — per-execution garbage crept back in whenever
// a refactor silently re-introduced a copy, and benchmarks alone don't fail
// CI. The budget is deliberately above the measured steady state (see
// BENCH_campaign.json) to absorb Go-version variance, but far below the
// ~80 allocs/exec of the pre-IR engine.
//
// Object counts cannot see a few large allocations, such as the branch-hit
// arena chunks every execution consumes a share of, so the gate also bounds
// bytes per execution on a complex contract.
func TestExecuteAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	c, seq := warmedLongest(t, crowdsaleSrc)
	const budget = 16.0 // measured ~3; pre-IR engine was ~80
	avg := testing.AllocsPerRun(200, func() {
		c.execute(seq)
	})
	if avg > budget {
		t.Errorf("steady-state execute allocates %.1f objects/run, budget %.0f", avg, budget)
	}
	t.Logf("steady-state execute: %.1f allocs/run over %d txs", avg, len(seq))

	c, seq = warmedLongest(t, complexSource())
	// Measured 6.6–6.8 KB/run (64 branch hits of 88 bytes each); keeping
	// whole 128-byte branch events measured 9.2–9.5 KB/run on the same
	// sequence, so the budget fails if the retained form grows back.
	const byteBudget = 8 << 10
	bytes := bytesPerRun(200, func() { c.execute(seq) })
	if bytes > byteBudget {
		t.Errorf("steady-state execute allocates %.0f B/run on a complex contract, budget %d", bytes, byteBudget)
	}
	t.Logf("steady-state execute (complex): %.0f B/run over %d txs", bytes, len(seq))
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average bytes
// allocated per call of f, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkExecuteComplex measures one warmed execution of the longest
// queue sequence of a complex-contract campaign: the per-execution hot path
// of deep campaigns, with its bytes and objects per execution.
func BenchmarkExecuteComplex(b *testing.B) {
	c, seq := warmedLongest(b, complexSource())
	b.ReportAllocs()
	for b.Loop() {
		c.execute(seq)
	}
}
