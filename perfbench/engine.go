package main

import (
	"context"
	"fmt"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/oracle"
	"mufuzz/internal/service"
)

// campaignSpec is one campaign of any workload. Labels are the bug classes
// planted in a generated contract; nil means every detected class counts as
// found (hand-written examples and fixtures carry no labels).
type campaignSpec struct {
	spec   service.CampaignSpec
	labels []oracle.BugClass
}

// counts reports whether a detected class counts towards bugs_found and
// time-to-bug.
func (s campaignSpec) counts(c oracle.BugClass) bool {
	if s.labels == nil {
		return true
	}
	for _, l := range s.labels {
		if l == c {
			return true
		}
	}
	return false
}

// found counts the classes of a result that count towards bugs_found.
func (s campaignSpec) found(classes []string) int {
	n := 0
	for _, c := range classes {
		if s.counts(oracle.BugClass(c)) {
			n++
		}
	}
	return n
}

// complexCorpus is the fixed set of generated complex contracts that deep-w1
// and the mixes fuzz, like the fixed datasets of the paper's evaluation. The
// workload seed derives every campaign seed, so runs with different seeds
// are independent trials on the same contracts.
var complexCorpus = corpus.GenerateComplex(corpusSeed, deepCycle)

// deepSpec is the i-th deep-w1 campaign: the corpus contracts in turn, each
// campaign with its own derived seed.
func (b *bench) deepSpec(i int) campaignSpec {
	g := complexCorpus[i%deepCycle]
	return campaignSpec{
		spec: service.CampaignSpec{
			Name: fmt.Sprintf("%s-%d", g.Name, i), Source: g.Source, Seed: derive(b.seed, "deep", i),
			Iterations: deepIters, Workers: 1,
		},
		labels: g.Labels,
	}
}

// shortSpec is the i-th short-wN campaign: the buggy Crowdsale of the
// paper's motivating example, with a derived seed, on the parallel engine.
func (b *bench) shortSpec(i int) campaignSpec {
	return campaignSpec{spec: service.CampaignSpec{
		Name: fmt.Sprintf("CrowdsaleBuggy-%d", i), Source: corpus.CrowdsaleBuggy(), Seed: derive(b.seed, "short", i),
		Iterations: shortIters, Workers: b.nproc,
	}}
}

// resolve builds a spec's target and world through the service's own
// resolution path, with a span around it named after the layer that does
// the work: minisol for source, ingest for bytecode.
func (b *bench) resolve(s service.CampaignSpec, parent int64) (fuzz.Target, fuzz.Options, error) {
	name := "minisol.compile"
	if s.Bytecode != "" {
		name = "ingest.load"
	}
	sp := b.tr.start(name, s.Name, parent)
	t, err := service.ResolveTarget(s)
	sp.end()
	if err != nil {
		return nil, fuzz.Options{}, fmt.Errorf("resolve %s: %w", s.Name, err)
	}
	w, _, err := service.ResolveWorld(s, t)
	if err != nil {
		return nil, fuzz.Options{}, err
	}
	opts, err := service.SpecOptions(s, 0, 0)
	if err != nil {
		return nil, fuzz.Options{}, err
	}
	opts.World = w
	return t, opts, nil
}

// newCampaign resolves a spec and builds its campaign.
func (b *bench) newCampaign(s service.CampaignSpec, parent int64) (*fuzz.Campaign, error) {
	t, opts, err := b.resolve(s, parent)
	if err != nil {
		return nil, err
	}
	sp := b.tr.start("fuzz.new_campaign", s.Name, parent)
	c := fuzz.NewTargetCampaign(t, opts)
	sp.end()
	return c, nil
}

// firstExec is an observer that stamps the first execution and stops the
// slice.
type firstExec struct {
	at     time.Time
	cancel context.CancelFunc
}

func (f *firstExec) OnExec(fuzz.ExecRecord) {
	if f.at.IsZero() {
		f.at = time.Now()
		f.cancel()
	}
}

// timeToFirstExec runs a freshly built campaign until its first execution
// and returns when that execution finished.
func timeToFirstExec(c *fuzz.Campaign) (time.Time, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &firstExec{cancel: cancel}
	c.SetObserver(obs)
	c.RunSlice(ctx, 1)
	if obs.at.IsZero() {
		return time.Time{}, fmt.Errorf("campaign executed nothing")
	}
	return obs.at, nil
}

// setupEngine is one engine-workload set-up: compile and analyse the first
// campaign's contract and run it to its first execution.
func (b *bench) setupEngine(s campaignSpec) (time.Duration, error) {
	start := time.Now()
	c, err := b.newCampaign(s.spec, 0)
	if err != nil {
		return 0, err
	}
	at, err := timeToFirstExec(c)
	return at.Sub(start), err
}

// campaignRun is one campaign driven to its budget by RunSlice.
type campaignRun struct {
	c      *fuzz.Campaign
	res    *fuzz.Result
	wall   time.Duration
	ttb    []float64
	sliceS []float64
}

// runCampaign builds a campaign and drives it in fixed-round slices the way
// the service scheduler does, stamping the end of the slice whose result
// first holds each counted class.
func (b *bench) runCampaign(s campaignSpec) (*campaignRun, error) {
	root := b.tr.start("bench.campaign", s.spec.Name, 0)
	defer root.end()
	start := time.Now()
	c, err := b.newCampaign(s.spec, root.id)
	if err != nil {
		return nil, err
	}
	run := &campaignRun{c: c}
	seen := make(map[oracle.BugClass]bool)
	for done := false; !done; {
		sp := b.tr.start("fuzz.slice", s.spec.Name, root.id)
		t := time.Now()
		run.res, done = c.RunSlice(context.Background(), sliceRounds)
		run.sliceS = append(run.sliceS, time.Since(t).Seconds())
		sp.end()
		for cl := range run.res.BugClasses {
			if !seen[cl] && s.counts(cl) {
				seen[cl] = true
				run.ttb = append(run.ttb, time.Since(start).Seconds())
			}
		}
	}
	run.wall = time.Since(start)
	return run, nil
}

// runEngine is the timed loop of deep-w1 and short-wN: campaigns one after
// another (a closed loop with one client) until the measured time is spent
// and at least minCampaigns have run. Output checks run between campaigns,
// outside the measured time.
func (b *bench) runEngine(specOf func(int) campaignSpec, cycle, minCampaigns int) (*measurement, error) {
	m := &measurement{}
	var firstFP string
	for i := 0; m.busy < b.seconds || i < minCampaigns; i++ {
		s := specOf(i)
		b.meter.start()
		run, err := b.runCampaign(s)
		b.meter.stop()
		if err != nil {
			return nil, err
		}
		b.attempted++
		m.busy += run.wall
		if err := b.setUpBetween(m.busy); err != nil {
			return nil, err
		}
		m.add(run.wall, run.res.Executions, run.ttb, s.found(classNames(run.res)), run.res.CoveredEdges)
		m.sliceS = append(m.sliceS, run.sliceS...)
		m.addCounts(run.c, run.res)
		b.checkResult(s, run.c, run.res)
		if i == 0 {
			firstFP = fingerprint(run.c, run.res)
		}
	}
	m.peakRSSMB = peakRSSMB()
	// Quality counts whole passes over the corpus only, so every contract
	// weighs the same.
	m.bugs = m.bugs[:len(m.bugs)/cycle*cycle]
	m.edges = m.edges[:len(m.edges)/cycle*cycle]
	// Determinism: the first campaign again, same (seed, workers), must
	// give the same fingerprint.
	again, err := b.runCampaign(specOf(0))
	if err != nil {
		return nil, err
	}
	if fp := fingerprint(again.c, again.res); fp != firstFP {
		b.fail("%s: re-run with the same seed and workers gave another fingerprint", specOf(0).spec.Name)
	}
	return m, nil
}

// checkResult records the problems of one finished campaign as failed
// checks, and runs the wrong-class negative case on the first campaign
// that has a proof of concept.
func (b *bench) checkResult(s campaignSpec, c *fuzz.Campaign, res *fuzz.Result) {
	for _, p := range b.resultProblems(s, c, res) {
		b.fail("%s: %s", s.spec.Name, p)
	}
	b.negativePoC(c, res)
}

// resultProblems lists what is wrong with one finished campaign: it must
// have spent exactly its budget, and every proof of concept must replay to
// its class. EF is exempt: it is a verdict on the whole campaign and has no
// proof of concept. Safe for concurrent use.
func (b *bench) resultProblems(s campaignSpec, c *fuzz.Campaign, res *fuzz.Result) []string {
	var out []string
	if res.Executions != s.spec.Iterations {
		out = append(out, fmt.Sprintf("%d executions, budget %d", res.Executions, s.spec.Iterations))
	}
	for class, seq := range res.Repro {
		if class != oracle.EF && !b.pocHolds(c, seq, class) {
			out = append(out, fmt.Sprintf("proof of concept for %s does not replay to it", class))
		}
	}
	return out
}

// pocHolds replays a sequence on a detached engine and reports whether it
// triggers the class.
func (b *bench) pocHolds(c *fuzz.Campaign, seq fuzz.Sequence, class oracle.BugClass) bool {
	sp := b.tr.start("fuzz.replay", "", 0)
	rr := c.Replay(seq)
	sp.end()
	return rr.BugClasses[class]
}

// negativePoC checks a proof of concept against a class it does not
// trigger, once per run; the check must reject it, or the checker is
// broken.
func (b *bench) negativePoC(c *fuzz.Campaign, res *fuzz.Result) {
	for class, seq := range res.Repro {
		if b.negativeDone || class == oracle.EF {
			continue
		}
		rr := c.Replay(seq)
		for _, wrong := range []oracle.BugClass{oracle.BD, oracle.UD, oracle.IO, oracle.RE, oracle.US, oracle.SE, oracle.TO, oracle.UE} {
			if rr.BugClasses[wrong] {
				continue
			}
			b.negativeDone = true
			if b.pocHolds(c, seq, wrong) {
				b.fail("negative case: a %s proof of concept passed the check as %s", class, wrong)
			}
			break
		}
	}
}

// fingerprint is the deterministic projection of a finished campaign.
func fingerprint(c *fuzz.Campaign, res *fuzz.Result) string {
	return fmt.Sprintf("%+v", conformance.Summarize(c, res))
}

func classNames(res *fuzz.Result) []string {
	out := make([]string, 0, len(res.BugClasses))
	for c := range res.BugClasses {
		out = append(out, string(c))
	}
	return out
}
