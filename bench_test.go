// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§V). Each benchmark prints the corresponding
// rows/series through b.Log on the first iteration and reports throughput
// metrics so `go test -bench=. -benchmem` doubles as the experiment driver.
//
// Budgets here are scaled down from the benchtab defaults so the full suite
// completes in minutes; run `go run ./cmd/benchtab -exp all` for the
// full-size reproduction.
package mufuzz_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/experiments"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
)

const (
	benchIters  = 1200 // per-contract execution budget
	benchSmallN = 8
	benchLargeN = 4
	benchSeed   = 1
)

// BenchmarkMotivatingExample reproduces the §III-B claim: only fuzzers with
// function repetition reach the Crowdsale deep branch.
func BenchmarkMotivatingExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Motivating(benchIters, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintMotivating(&buf, rows)
			b.Log("\n" + buf.String())
			for _, r := range rows {
				if r.Fuzzer == "MuFuzz" && !r.DeepBranch {
					b.Error("MuFuzz must reach the deep branch")
				}
			}
		}
	}
}

// BenchmarkFig5SmallCoverage regenerates the Fig. 5(a) series.
func BenchmarkFig5SmallCoverage(b *testing.B) {
	gens := corpus.GenerateSmall(benchSeed, benchSmallN)
	for i := 0; i < b.N; i++ {
		curves, err := experiments.CoverageOverTime(gens, experiments.StandardFuzzers(), benchIters, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintCoverageCurves(&buf, "Fig. 5(a) analog", curves)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig5LargeCoverage regenerates the Fig. 5(b) series.
func BenchmarkFig5LargeCoverage(b *testing.B) {
	gens := corpus.GenerateLarge(benchSeed, benchLargeN)
	for i := 0; i < b.N; i++ {
		curves, err := experiments.CoverageOverTime(gens, experiments.StandardFuzzers(), benchIters*2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintCoverageCurves(&buf, "Fig. 5(b) analog", curves)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig6OverallCoverage regenerates the Fig. 6 bars.
func BenchmarkFig6OverallCoverage(b *testing.B) {
	small := corpus.GenerateSmall(benchSeed, benchSmallN)
	for i := 0; i < b.N; i++ {
		bars, err := experiments.OverallCoverage(small, experiments.StandardFuzzers(), benchIters, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintCoverageBars(&buf, "Fig. 6 analog (small)", bars)
			b.Log("\n" + buf.String())
			// shape check: MuFuzz should lead
			best := bars[0]
			for _, bar := range bars {
				if bar.Coverage > best.Coverage {
					best = bar
				}
			}
			if best.Fuzzer != "MuFuzz" {
				b.Logf("note: %s led this reduced-budget run", best.Fuzzer)
			}
		}
	}
}

// BenchmarkTable2Datasets regenerates the dataset summary.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Datasets(benchSeed, benchSmallN, benchLargeN, benchLargeN)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintDatasets(&buf, stats)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable3BugDetection regenerates the TP/FN table over the labelled
// suite for every tool.
func BenchmarkTable3BugDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.BugDetection(
			corpus.VulnSuite(), corpus.SafeSuite(),
			experiments.StandardTools(), benchIters, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintDetectionTable(&buf, results)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig7Ablation regenerates the component ablation.
func BenchmarkFig7Ablation(b *testing.B) {
	gens := corpus.GenerateSmall(benchSeed+100, benchSmallN)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(gens, benchIters, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintAblation(&buf, "Fig. 7 analog (small)", rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable4RealWorld regenerates the case study on complex contracts.
func BenchmarkTable4RealWorld(b *testing.B) {
	gens := corpus.GenerateComplex(benchSeed+200, benchLargeN)
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseStudy(gens, benchIters*2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			experiments.PrintCaseStudy(&buf, res)
			b.Log("\n" + buf.String())
		}
	}
}

// --- micro benchmarks of the fuzzing hot path ---

// BenchmarkCampaignThroughput measures raw sequence executions per second on
// the Crowdsale contract (the fuzzer's end-to-end hot path), once at one
// worker and once with the round fanned across all cores. `go run ./cmd/benchtab -exp campaign` emits the same measurement as
// machine-readable JSON for the perf trajectory.
func BenchmarkCampaignThroughput(b *testing.B) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res := fuzz.Run(comp, fuzz.Options{
					Strategy:   fuzz.MuFuzz(),
					Seed:       int64(i),
					Iterations: 500,
					Workers:    workers,
				})
				total += res.Executions
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "execs/s")
		})
	}
}

// BenchmarkCompile measures compiler throughput on a large generated
// contract.
func BenchmarkCompile(b *testing.B) {
	gen := corpus.GenerateLarge(3, 1)[0]
	b.SetBytes(int64(len(gen.Source)))
	for i := 0; i < b.N; i++ {
		if _, err := minisol.Compile(gen.Source); err != nil {
			b.Fatal(err)
		}
	}
}
