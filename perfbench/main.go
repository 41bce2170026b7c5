// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed measuring time, checks the outputs of everything it
// ran, and prints one JSON result line:
//
//	go run ./perfbench --workload deep-w1 --seed 1 --seconds 12 --trace 0
//
// Workloads: deep-w1 (long sequential campaigns on generated complex
// contracts), short-wN (many short Crowdsale campaigns on the parallel
// engine), service-mix (the single-node campaign service over HTTP with an
// on-disk store) and fleet-mix (the same mix through a fleet coordinator and
// in-process workers). With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, taken from spans
// the benchmark records around its calls into each layer. README.md in this
// directory documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mufuzz/internal/fuzz"
)

// Workload budgets. Every campaign runs to its execution budget; the
// measuring loop starts new campaigns (or batches) until --seconds of
// measured time have passed.
const (
	sliceRounds = 8     // energy rounds per RunSlice, the service default
	deepIters   = 20000 // deep-w1 budget: bugs still land past 16k execs
	shortIters  = 2000  // short-wN budget
	mixIters    = 4000  // per-campaign budget in the service and fleet mixes
	corpusSeed  = 1     // seed of the fixed complex-contract corpus
	deepCycle   = 12    // deep-w1 corpus size; quality counts whole passes
	deepPasses  = 2     // corpus passes an end-to-end deep-w1 run completes at least
	mixComplex  = 9     // corpus contracts per mix batch
	mixBatches  = 4     // whole mix batches an end-to-end run completes at least
	setupReps   = 25    // set-up repetitions; setup_s is their median
	setupFirst  = 5     // set-ups before the measured time; the rest are spread over it
	setupSeed   = 1     // seed of the mix set-up batch's campaign seeds
	pollEvery   = 25 * time.Millisecond
	setupPoll   = 2 * time.Millisecond // status polls while timing a mix set-up
	// stallAfter fails a run whose batch or set-up has not finished after
	// this long, so a worker that keeps failing its leases cannot hang it.
	stallAfter = 60 * time.Second
)

var workloads = []string{"deep-w1", "short-wN", "service-mix", "fleet-mix"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark invocation.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	// endToEnd marks the untraced end-to-end measurement: it completes at
	// least deepPasses corpus passes or mixBatches batches even when
	// --seconds has passed, and interleaves set-ups with its campaigns.
	// setups holds their times and setupWall the time they took with
	// teardown.
	endToEnd  bool
	setups    []float64
	setupWall time.Duration
	nproc     int
	dir       string  // scratch directory for stores and the span file
	tr        *tracer // nil unless this is a traced measurement

	attempted    int
	failed       int
	checks       []string // failed output checks
	negativeDone bool     // the wrong-class proof-of-concept case ran
	metrics      map[string]metric

	fixtures map[string]fixture
	meter    meter
	svcLog   *httpLog
	fleetLog *httpLog
	stores   storeStats
	control  controlStats
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check; it also counts as a failed attempt.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.checks = append(b.checks, msg)
	b.failed++
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	processStart := time.Now()
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-run", fmt.Sprintf("%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		dir:      dir,
		metrics:  make(map[string]metric),
	}
	host := hostFingerprint(dir)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	if *trace == 1 {
		err = b.runTraced()
	} else {
		err = b.runEndToEnd(processStart)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !b.negativeDone {
		b.fail("negative case: no proof of concept was available to check against a wrong class")
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	printTable(b.metrics)
	out, err := json.Marshal(result{
		Correct:   len(b.checks) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measurement is what one timed pass over a workload observed.
type measurement struct {
	execs     int
	busy      time.Duration // measured time, output checks excluded
	campaignS []float64     // per-campaign wall time
	ttbS      []float64     // time to each counted class, per campaign
	bugs      []int         // counted classes detected, per campaign
	edges     []int         // covered edges, per campaign
	sliceS    []float64     // RunSlice durations of directly driven campaigns
	counts    engineCounts
	peakRSSMB float64 // at the end of the timed section
}

func (m *measurement) add(wall time.Duration, execs int, ttb []float64, bugs, edges int) {
	m.campaignS = append(m.campaignS, wall.Seconds())
	m.execs += execs
	m.ttbS = append(m.ttbS, ttb...)
	m.bugs = append(m.bugs, bugs)
	m.edges = append(m.edges, edges)
}

// engineCounts sums the exact engine counters of directly driven campaigns.
type engineCounts struct {
	campaigns, execs, masks, seqsMutated, queueLen, lineSteps, cacheHits, cacheMisses int
}

func (m *measurement) addCounts(c *fuzz.Campaign, res *fuzz.Result) {
	k := &m.counts
	k.campaigns++
	k.execs += res.Executions
	k.masks += res.MasksComputed
	k.seqsMutated += res.SequencesMutated
	k.queueLen += res.SeedQueueLen
	_, steps := c.LineSearchStats()
	k.lineSteps += steps
	hits, misses := c.PrefixCacheStats()
	k.cacheHits += hits
	k.cacheMisses += misses
}

func (m *measurement) execsPerS() float64 { return float64(m.execs) / m.busy.Seconds() }

// runEndToEnd measures the workload untraced and sets the end-to-end metrics.
func (b *bench) runEndToEnd(processStart time.Time) error {
	b.endToEnd = true
	if err := b.setUpTo(setupFirst); err != nil {
		return err
	}
	total0, steal0 := cpuTicks()
	m, err := b.measure()
	if err != nil {
		return err
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		fmt.Printf("host CPU stolen by the hypervisor during the run: %.1f%%\n", 100*(steal1-steal0)/(total1-total0))
	}
	if err := b.setUpTo(setupReps); err != nil {
		return err
	}
	setup := b.setups
	fmt.Printf("setup: first %.4fs, min %.4fs, median of %d set-ups %.4fs, max %.4fs; set-ups with teardown took %.1fs\n",
		setup[0], slices.Min(setup), len(setup), median(setup), slices.Max(setup), b.setupWall.Seconds())
	b.set("execs_per_s", "1/s", m.execsPerS())
	b.set("campaign_s_p50", "s", median(m.campaignS))
	b.set("bugs_found", "count", meanInt(m.bugs))
	b.set("edges_covered", "count", meanInt(m.edges))
	b.set("setup_s", "s", median(setup))
	b.set("peak_rss_mb", "MB", m.peakRSSMB)
	p, v := tailPercentile(m.campaignS)
	fmt.Printf("samples: %d campaigns (campaign_s p%d %.4fs), %d time-to-bug samples (p50 %.4fs), %d executions in %.2fs; process ran %.1fs\n",
		len(m.campaignS), p, v, len(m.ttbS), median(m.ttbS), m.execs, m.busy.Seconds(), time.Since(processStart).Seconds())
	return nil
}

// setUpTo brings the workload's components up until n set-ups have been
// timed. Each set-up starts on a collected heap, so garbage left by the
// previous one or by the measured work is not collected on its clock.
func (b *bench) setUpTo(n int) error {
	t0 := time.Now()
	defer func() { b.setupWall += time.Since(t0) }()
	for len(b.setups) < n {
		runtime.GC()
		d, err := b.setupOnce()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, d.Seconds())
	}
	return nil
}

// setUpBetween runs, between two campaigns or batches of the end-to-end
// measurement and outside its measured time, the set-ups due by the share
// of the measured time spent so far. Set-ups so sample the host over the
// whole run, not only over its first seconds.
func (b *bench) setUpBetween(busy time.Duration) error {
	if !b.endToEnd {
		return nil
	}
	share := min(busy.Seconds()/b.seconds.Seconds(), 1)
	return b.setUpTo(setupFirst + int(share*float64(setupReps-setupFirst)))
}

func (b *bench) setupOnce() (time.Duration, error) {
	switch b.workload {
	case "deep-w1":
		return b.setupEngine(b.deepSpec(0))
	case "short-wN":
		return b.setupEngine(b.shortSpec(0))
	default:
		return b.setupControl()
	}
}

// measure runs the workload's timed pass plus its output checks.
func (b *bench) measure() (*measurement, error) {
	var m *measurement
	var fins []finished
	var err error
	switch b.workload {
	case "deep-w1":
		passes := 1
		if b.endToEnd {
			passes = deepPasses
		}
		return b.runEngine(b.deepSpec, deepCycle, passes*deepCycle)
	case "short-wN":
		return b.runEngine(b.shortSpec, 1, 1)
	case "service-mix":
		m, fins, err = b.runMix("service", mixIters, 0)
	default:
		m, fins, err = b.runMix("fleet", mixIters, 0)
	}
	if err != nil {
		return nil, err
	}
	m.peakRSSMB = peakRSSMB()
	b.checkMix(fins)
	return m, nil
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
