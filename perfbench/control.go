package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fleet"
	"mufuzz/internal/oracle"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// fixture is one source-free contract from the repository's fixtures.
type fixture struct {
	bytecode string
	abi      json.RawMessage
}

// fixtureNames are the source-free contracts of every mix batch; the last
// one runs as a world with a synthesized attacker.
var fixtureNames = []string{"magic-gate", "crowdsale-buggy", "bank-reentrant"}

func (b *bench) loadFixtures() error {
	if b.fixtures != nil {
		return nil
	}
	fx := make(map[string]fixture)
	for _, n := range fixtureNames {
		code, err := os.ReadFile(filepath.Join("fixtures", n+".bin"))
		if err != nil {
			return err
		}
		abi, err := os.ReadFile(filepath.Join("fixtures", n+".abi.json"))
		if err != nil {
			return err
		}
		fx[n] = fixture{bytecode: strings.TrimSpace(string(code)), abi: abi}
	}
	b.fixtures = fx
	return nil
}

// mixBatch is batch number `batch` of the service and fleet mixes: the first
// mixComplex corpus contracts, the source-free fixtures, and a
// bank-reentrant world with an attacker, with campaign seeds derived from
// the workload seed and the batch. Every campaign of a batch is on a
// distinct contract, so each has its own seed bucket and no campaign
// imports another's seeds.
func (b *bench) mixBatch(batch, iters int) ([]campaignSpec, error) {
	if err := b.loadFixtures(); err != nil {
		return nil, err
	}
	var out []campaignSpec
	for i, g := range complexCorpus[:mixComplex] {
		out = append(out, campaignSpec{
			spec: service.CampaignSpec{
				Name: fmt.Sprintf("b%d-%s", batch, g.Name), Source: g.Source,
				Seed: derive(b.seed, fmt.Sprintf("mix-%d", batch), i), Iterations: iters, Workers: 1,
			},
			labels: g.Labels,
		})
	}
	for i, n := range fixtureNames {
		fx := b.fixtures[n]
		out = append(out, campaignSpec{spec: service.CampaignSpec{
			Name: fmt.Sprintf("b%d-%s", batch, n), Bytecode: fx.bytecode, ABI: fx.abi,
			Attacker: n == "bank-reentrant",
			Seed:     derive(b.seed, fmt.Sprintf("mix-%d", batch), mixComplex+i), Iterations: iters, Workers: 1,
		}})
	}
	return out, nil
}

// controlStats gathers per-layer observations of the control planes.
type controlStats struct {
	queueWaitS     []float64
	workerWall     time.Duration // nproc × the time the fleet workers ran
	fleetCampaigns int
}

// storeStats counts what the control planes' stores hold after each batch,
// and the campaigns those batches ran.
type storeStats struct {
	campaigns int
	objects   map[store.Kind]int
	bytes     map[store.Kind]int
}

var storeKinds = []store.Kind{store.KindSeed, store.KindPoC, store.KindSnapshot, store.KindMeta, store.KindTranscript}

func (b *bench) countStore(st *store.Store, campaigns int) {
	if b.stores.objects == nil {
		b.stores = storeStats{objects: make(map[store.Kind]int), bytes: make(map[store.Kind]int)}
	}
	b.stores.campaigns += campaigns
	for _, k := range storeKinds {
		buckets, _ := st.Buckets(k)
		for _, bucket := range append([]string{""}, buckets...) {
			sp := b.tr.start("store.list", "", 0)
			entries, err := st.List(k, bucket)
			sp.end()
			if err != nil {
				continue
			}
			for _, e := range entries {
				b.stores.objects[k]++
				b.stores.bytes[k] += len(e.Payload)
			}
		}
	}
}

// status is the part of a campaign status that both control planes serve
// under the same JSON names.
type status struct {
	ID           string   `json:"id"`
	State        string   `json:"state"`
	Executions   int      `json:"executions"`
	CoveredEdges int      `json:"covered_edges"`
	TotalEdges   int      `json:"total_edges"`
	SeedQueueLen int      `json:"seed_queue_len"`
	Findings     int      `json:"findings"`
	Classes      []string `json:"classes"`
}

// finished is one mix campaign as its control plane last reported it.
type finished struct {
	spec campaignSpec
	status
	// transcript is the SHA-256 of the fleet's assembled transcript (nil
	// for the service); sample holds the bytes of one transcript per run
	// for the negative case.
	transcript []byte
	sample     []byte
}

// plane is one running control plane behind a loopback HTTP server.
type plane struct {
	name   string // "service" or "fleet"
	srv    *httptest.Server
	client *http.Client
	fleet  *fleet.Client // fleet only: fetches transcripts
	// startWorkers (fleet only) runs once the batch is submitted; stop shuts
	// the plane down and returns once every goroutine it started has ended.
	startWorkers func()
	stop         func()
}

func (p *plane) campaignsURL() string {
	if p.name == "fleet" {
		return p.srv.URL + "/v1/fleet/campaigns"
	}
	return p.srv.URL + "/v1/campaigns"
}

func (p *plane) submit(spec service.CampaignSpec) (string, error) {
	var body any = spec
	if p.name == "fleet" {
		body = fleet.SubmitRequest{Spec: spec}
	}
	var st status
	err := httpJSON(p.client, http.MethodPost, p.campaignsURL(), body, &st)
	return st.ID, err
}

// startPlane opens a control plane on a store: the service with
// Slots=nproc, or a fleet coordinator whose nproc workers start after
// submission, so that none sits in a poll back-off at t0. The handler sits
// behind the benchmark's middleware when log is non-nil.
func (b *bench) startPlane(name string, st *store.Store, iters int, log *httpLog, batch int) (*plane, error) {
	p := &plane{name: name, client: &http.Client{Transport: &http.Transport{}}}
	var h http.Handler
	stopPlane := func() {}
	if name == "service" {
		svc := service.New(service.Config{Store: st, Slots: b.nproc, DefaultIterations: iters})
		if err := svc.Start(); err != nil {
			return nil, err
		}
		h, stopPlane = svc.Handler(), svc.Close
	} else {
		// One tenant submits every campaign; its in-flight cap must not
		// idle any of the nproc workers.
		h = fleet.NewCoordinator(fleet.CoordinatorConfig{Store: st, DefaultIterations: iters, TenantMaxInFlight: b.nproc}).Handler()
	}
	if log != nil {
		h = b.middleware(name, log, h)
	}
	p.srv = httptest.NewServer(h)
	stopWorkers := func() {}
	if name == "fleet" {
		p.fleet = fleet.NewClient(p.srv.URL, b.seed)
		p.startWorkers = func() { stopWorkers = b.startWorkers(p.srv.URL, batch) }
	}
	p.stop = func() {
		stopWorkers()
		p.client.CloseIdleConnections()
		p.srv.Close()
		stopPlane()
	}
	return p, nil
}

// startWorkers runs nproc fleet workers against a coordinator and returns
// the function that stops them, waits for them and accounts their time.
func (b *bench) startWorkers(url string, batch int) func() {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < b.nproc; k++ {
		w := fleet.NewWorker(fmt.Sprintf("w%d", k), fleet.NewClient(url, derive(b.seed, "worker", batch*64+k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
		b.control.workerWall += time.Since(start) * time.Duration(b.nproc)
	}
}

// runMix is the timed loop of service-mix and fleet-mix. Each batch goes to
// a fresh control plane with an on-disk store, behind a loopback HTTP
// server. One client submits the whole batch at t0 and polls statuses
// every pollEvery until every campaign finished. Batches repeat until the
// measured time is spent and, end to end, at least mixBatches have
// finished.
func (b *bench) runMix(name string, iters, maxBatches int) (*measurement, []finished, error) {
	m := &measurement{}
	log := newHTTPLog()
	if name == "service" {
		b.svcLog, b.control.queueWaitS = log, nil
	} else {
		b.fleetLog, b.control.workerWall, b.control.fleetCampaigns = log, 0, 0
	}
	var all []finished
	minBatches := 0
	if b.endToEnd {
		minBatches = mixBatches
	}
	for batch := 0; (m.busy < b.seconds || batch < minBatches) && (maxBatches == 0 || batch < maxBatches); batch++ {
		specs, err := b.mixBatch(batch, iters)
		if err != nil {
			return nil, nil, err
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, batch))
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		p, err := b.startPlane(name, st, iters, log, batch)
		if err != nil {
			return nil, nil, err
		}
		fins, err := b.runBatch(m, p, specs, batch == 0)
		p.stop()
		if err != nil {
			return nil, nil, err
		}
		b.countStore(st, len(specs))
		if name == "fleet" {
			b.control.fleetCampaigns += len(specs)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		if err := b.setUpBetween(m.busy); err != nil {
			return nil, nil, err
		}
		all = append(all, fins...)
	}
	b.attempted += log.requests()
	b.failed += log.failures()
	return m, all, nil
}

// runBatch submits one batch at t0 and follows it to the end through the
// polled statuses: time to each counted class, time to first progress (on
// the service), and campaign wall time from submit to the poll that first
// sees the campaign finished.
func (b *bench) runBatch(m *measurement, p *plane, specs []campaignSpec, sample bool) ([]finished, error) {
	index := make(map[string]int)
	submitted := make([]time.Time, len(specs))
	b.meter.start()
	defer b.meter.stop()
	t0 := time.Now()
	for i, s := range specs {
		submitted[i] = time.Now()
		id, err := p.submit(s.spec)
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", s.spec.Name, err)
		}
		index[id] = i
		b.attempted++
	}
	if p.startWorkers != nil {
		p.startWorkers()
	}
	seen := make([]map[string]bool, len(specs))
	doneAt := make([]time.Time, len(specs))
	last := make([]status, len(specs))
	for remaining := len(specs); remaining > 0; {
		var sts []status
		if err := httpJSON(p.client, http.MethodGet, p.campaignsURL(), nil, &sts); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		now := time.Now()
		for _, st := range sts {
			i, ok := index[st.ID]
			if !ok || !doneAt[i].IsZero() {
				continue
			}
			if p.name == "service" && last[i].Executions == 0 && st.Executions > 0 {
				b.control.queueWaitS = append(b.control.queueWaitS, now.Sub(submitted[i]).Seconds())
			}
			last[i] = st
			if seen[i] == nil {
				seen[i] = make(map[string]bool)
			}
			for _, c := range st.Classes {
				if !seen[i][c] && specs[i].counts(oracle.BugClass(c)) {
					m.ttbS = append(m.ttbS, now.Sub(submitted[i]).Seconds())
				}
				seen[i][c] = true
			}
			if st.State == service.StateDone || st.State == service.StateFailed || st.State == service.StateCancelled {
				doneAt[i] = now
				remaining--
			}
		}
		if remaining > 0 && now.Sub(t0) > stallAfter {
			return nil, fmt.Errorf("%s batch: %d campaigns unfinished after %v", p.name, remaining, stallAfter)
		}
		if remaining > 0 {
			time.Sleep(pollEvery)
		}
	}
	wall := time.Since(t0)
	m.busy += wall
	fmt.Fprintf(os.Stderr, "perfbench: %s batch of %d campaigns in %.3fs\n", p.name, len(specs), wall.Seconds())

	out := make([]finished, len(specs))
	for i, s := range specs {
		st := last[i]
		out[i] = finished{spec: s, status: st}
		m.add(doneAt[i].Sub(submitted[i]), st.Executions, nil, s.found(st.Classes), st.CoveredEdges)
		if p.fleet == nil {
			continue
		}
		tr, err := p.fleet.Transcript(context.Background(), st.ID)
		if err != nil {
			return nil, fmt.Errorf("transcript %s: %w", s.spec.Name, err)
		}
		sum := sha256.Sum256(tr)
		out[i].transcript = sum[:]
		if sample && i == 0 {
			out[i].sample = tr
		}
	}
	return out, nil
}

// httpJSON sends one JSON request and decodes a 2xx JSON response.
func httpJSON(client *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// checkMix checks every finished mix campaign against the single-node
// reference recording of its spec: the final status must match the
// reference summary, the budget must be spent, every proof of concept must
// replay to its class, and (fleet) the assembled transcript must be
// byte-identical to the reference transcript. References run on nproc
// goroutines, outside the measured time. The first batch's references are
// kept for the negative cases.
func (b *bench) checkMix(fins []finished) {
	problems := make([][]string, len(fins))
	kept := make([]*conformance.Run, min(len(fins), mixComplex+len(fixtureNames)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < b.nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(fins); i = int(next.Add(1)) - 1 {
				f := fins[i]
				run, err := fleet.ReferenceTranscript(f.spec.spec, f.spec.spec.Iterations, 1)
				if err != nil {
					problems[i] = []string{"reference: " + err.Error()}
					continue
				}
				problems[i] = append(compareFinal(f, run), b.resultProblems(f.spec, run.Campaign, run.Result)...)
				if i < len(kept) {
					kept[i] = run
				}
			}
		}()
	}
	wg.Wait()
	for i, ps := range problems {
		for _, p := range ps {
			b.fail("%s: %s", fins[i].spec.spec.Name, p)
		}
	}
	for _, run := range kept {
		if run != nil {
			b.negativePoC(run.Campaign, run.Result)
		}
	}
	// Negative case: a transcript with one flipped byte must fail the
	// byte-identity check.
	if len(kept) > 0 && kept[0] != nil && fins[0].transcript != nil {
		if fins[0].sample == nil {
			b.fail("negative case: no fleet transcript was available to flip")
			return
		}
		bad := append([]byte(nil), fins[0].sample...)
		bad[len(bad)/2] ^= 0x01
		sum := sha256.Sum256(bad)
		if sameTranscript(sum[:], kept[0]) {
			b.fail("negative case: a transcript with a flipped byte passed the identity check")
		}
	}
}

// compareFinal lists the differences between a control plane's final view
// of a campaign and the reference recording of its spec.
func compareFinal(f finished, ref *conformance.Run) []string {
	var errs []string
	want := ref.Transcript.Final
	classes := append([]string(nil), f.Classes...)
	sort.Strings(classes)
	got := fmt.Sprintf("state=%s execs=%d covered=%d/%d queue=%d findings=%d classes=%v",
		f.State, f.Executions, f.CoveredEdges, f.TotalEdges, f.SeedQueueLen, f.Findings, classes)
	exp := fmt.Sprintf("state=done execs=%d covered=%d/%d queue=%d findings=%d classes=%v",
		want.Executions, want.CoveredEdges, want.TotalEdges, want.SeedQueueLen, len(want.Findings), want.Classes)
	if got != exp {
		errs = append(errs, fmt.Sprintf("final status %s, reference %s", got, exp))
	}
	if f.transcript != nil && !sameTranscript(f.transcript, ref) {
		errs = append(errs, "transcript differs from the reference transcript")
	}
	return errs
}

// sameTranscript reports whether a transcript digest is that of the
// reference recording's transcript bytes.
func sameTranscript(sum []byte, ref *conformance.Run) bool {
	want := sha256.Sum256(ref.Transcript.EncodeBytes())
	return bytes.Equal(sum, want[:])
}

// setupControl is one mix set-up, timed from opening the store to the first
// polled status that shows an execution: open a store, start the control
// plane behind its HTTP server and wait until it is ready, submit the first
// batch over HTTP, start the fleet's workers, and poll statuses every
// setupPoll. Tearing the plane down is not timed.
func (b *bench) setupControl() (time.Duration, error) {
	specs, err := b.mixBatch(0, mixIters)
	if err != nil {
		return 0, err
	}
	// The first slice's length depends on the campaign seed, so set-ups
	// use fixed seeds: setup_s then compares across workload seeds.
	for i := range specs {
		specs[i].spec.Seed = derive(setupSeed, "setup", i)
	}
	name := "service"
	if b.workload == "fleet-mix" {
		name = "fleet"
	}
	dir := filepath.Join(b.dir, "setup")
	defer os.RemoveAll(dir)
	start := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	p, err := b.startPlane(name, st, mixIters, nil, 0)
	if err != nil {
		return 0, err
	}
	defer p.stop()
	var ready map[string]any
	if err := httpJSON(p.client, http.MethodGet, p.srv.URL+"/readyz", nil, &ready); err != nil {
		return 0, err
	}
	for _, s := range specs {
		if _, err := p.submit(s.spec); err != nil {
			return 0, fmt.Errorf("submit %s: %w", s.spec.Name, err)
		}
	}
	if p.startWorkers != nil {
		p.startWorkers()
	}
	for {
		var sts []status
		if err := httpJSON(p.client, http.MethodGet, p.campaignsURL(), nil, &sts); err != nil {
			return 0, fmt.Errorf("poll: %w", err)
		}
		for _, st := range sts {
			if st.Executions > 0 {
				return time.Since(start), nil
			}
		}
		if time.Since(start) > stallAfter {
			return 0, fmt.Errorf("%s set-up: no execution after %v", name, stallAfter)
		}
		time.Sleep(setupPoll)
	}
}
