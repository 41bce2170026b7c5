package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/keccak"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// meter accumulates allocation and GC CPU over the timed sections of the
// traced pass.
type meter struct {
	on, running        bool
	m0                 runtime.MemStats
	cpu0               []metrics.Sample
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func cpuSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

func (mt *meter) start() {
	if !mt.on {
		return
	}
	mt.running = true
	runtime.ReadMemStats(&mt.m0)
	mt.cpu0 = cpuSamples()
}

func (mt *meter) stop() {
	if !mt.running {
		return
	}
	mt.running = false
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSamples()
	mt.allocBytes += m1.TotalAlloc - mt.m0.TotalAlloc
	mt.allocs += m1.Mallocs - mt.m0.Mallocs
	mt.gcCPU += cpu1[0].Value.Float64() - mt.cpu0[0].Value.Float64()
	mt.totalCPU += cpu1[1].Value.Float64() - mt.cpu0[1].Value.Float64()
}

// runTraced is the traced measurement. It runs the workload untraced (the
// base of the tracing overhead), then traced, each for half the measuring
// time, then probes single layers at fixed points, and sets the per-layer
// metrics. Spans are kept in memory and written to a JSON-lines file at the
// end.
func (b *bench) runTraced() error {
	b.seconds = max(b.seconds/2, time.Second)
	base, err := b.measure()
	if err != nil {
		return err
	}
	b.tr = newTracer()
	b.control = controlStats{}
	b.stores = storeStats{}
	b.meter = meter{on: true}
	m, err := b.measure()
	if err != nil {
		return err
	}
	b.meter.on = false
	b.set("trace.overhead_ratio", "ratio", m.execsPerS()/base.execsPerS())
	fmt.Printf("tracing overhead: traced %.1f execs/s, untraced %.1f execs/s\n", m.execsPerS(), base.execsPerS())
	b.set("fuzz.alloc_bytes_per_exec", "B", float64(b.meter.allocBytes)/float64(m.execs))
	b.set("fuzz.allocs_per_exec", "count", float64(b.meter.allocs)/float64(m.execs))
	b.set("gc.cpu_fraction", "ratio", b.meter.gcCPU/b.meter.totalCPU)
	b.set("fuzz.ttb_s_p50", "s", median(m.ttbS))

	// The mixes run the engine inside the control plane; drive the first
	// batch's campaigns directly to time their slices and read counters.
	if b.workload == "service-mix" || b.workload == "fleet-mix" {
		specs, err := b.mixBatch(0, mixIters)
		if err != nil {
			return err
		}
		for _, s := range specs {
			run, err := b.runCampaign(s)
			if err != nil {
				return err
			}
			m.sliceS = append(m.sliceS, run.sliceS...)
			m.addCounts(run.c, run.res)
		}
	}
	b.engineLayerMetrics(m)

	// Control planes the workload does not exercise are probed with one
	// small batch of the mix.
	if b.workload != "service-mix" {
		_, fins, err := b.runMix("service", shortIters, 1)
		if err != nil {
			return err
		}
		b.checkMix(fins)
	}
	if b.workload != "fleet-mix" {
		_, fins, err := b.runMix("fleet", shortIters, 1)
		if err != nil {
			return err
		}
		b.checkMix(fins)
	}
	b.controlLayerMetrics()

	transcript, err := b.probeCampaignLayers()
	if err != nil {
		return err
	}
	if err := b.probeStore(transcript); err != nil {
		return err
	}
	if err := b.probeParallel(); err != nil {
		return err
	}
	if err := b.probeIngest(); err != nil {
		return err
	}

	self := b.tr.selfTime()
	for _, l := range []string{"bench", "minisol", "ingest", "fuzz", "snapshot", "store", "service", "fleet"} {
		b.set("self_s."+l, "s", self[l])
	}
	b.set("minisol.compile_ms", "ms", median(ms(b.tr.durations("minisol.compile"))))
	b.set("ingest.load_ms", "ms", median(ms(b.tr.durations("ingest.load"))))
	b.set("fuzz.new_campaign_ms", "ms", median(ms(b.tr.durations("fuzz.new_campaign"))))

	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

// engineLayerMetrics sets the metrics of directly driven campaigns.
func (b *bench) engineLayerMetrics(m *measurement) {
	k := m.counts
	n := float64(k.campaigns)
	b.set("fuzz.slice_ms_p50", "ms", median(ms(m.sliceS)))
	b.set("fuzz.slice_ms_p99", "ms", quantile(ms(m.sliceS), 0.99))
	sum := 0.0
	for _, s := range m.sliceS {
		sum += s
	}
	b.set("fuzz.execs_per_s", "1/s", float64(k.execs)/sum)
	b.set("fuzz.masks", "count", float64(k.masks)/n)
	b.set("fuzz.seqs_mutated", "count", float64(k.seqsMutated)/n)
	b.set("fuzz.queue_len", "count", float64(k.queueLen)/n)
	b.set("fuzz.line_steps", "count", float64(k.lineSteps)/n)
	lookups := k.cacheHits + k.cacheMisses
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(k.cacheHits) / float64(lookups)
	}
	b.set("statecache.hit_ratio", "ratio", ratio)
	b.set("statecache.lookups", "count", float64(lookups)/n)
	p, v := tailPercentile(m.sliceS)
	fmt.Printf("engine: %d campaigns, %d slices (slice p%d %.3f ms)\n", k.campaigns, len(m.sliceS), p, v*1000)
}

// controlLayerMetrics sets the metrics seen by the control-plane middleware
// and the fleet workers.
func (b *bench) controlLayerMetrics() {
	sl, fl, c := b.svcLog, b.fleetLog, b.control
	b.set("service.submit_ms_p50", "ms", median(ms(sl.durations("service.submit"))))
	b.set("service.status_ms_p50", "ms", median(ms(sl.durations("service.status"))))
	b.set("service.status_ms_p99", "ms", quantile(ms(sl.durations("service.status")), 0.99))
	b.set("service.queue_wait_s", "s", median(c.queueWaitS))
	b.set("fleet.lease_ms_p50", "ms", median(ms(fl.durations("fleet.lease"))))
	b.set("fleet.lease_ms_p99", "ms", quantile(ms(fl.durations("fleet.lease")), 0.99))
	b.set("fleet.complete_ms_p50", "ms", median(ms(fl.durations("fleet.complete"))))
	b.set("fleet.complete_ms_p99", "ms", quantile(ms(fl.durations("fleet.complete")), 0.99))
	fc := float64(c.fleetCampaigns)
	b.set("fleet.heartbeats_per_campaign", "count", float64(len(fl.durations("fleet.heartbeat")))/fc)
	busy, empty := fl.leaseStats()
	b.set("fleet.worker_busy_ratio", "ratio", busy.Seconds()/c.workerWall.Seconds())
	b.set("fleet.empty_polls_per_campaign", "count", float64(empty)/fc)
	b.set("fleet.http_409", "count", float64(fl.code(409)))
	b.set("fleet.http_429", "count", float64(fl.code(429)))
	for _, k := range storeKinds {
		n := float64(b.stores.campaigns)
		b.set("store.objects_per_campaign."+string(k), "count", float64(b.stores.objects[k])/n)
		b.set("store.kb_per_campaign."+string(k), "KB", float64(b.stores.bytes[k])/1e3/n)
	}
}

// runSlices drives a campaign to its budget or until it has run `upTo`
// executions, and returns the time spent in RunSlice.
func runSlices(c *fuzz.Campaign, upTo int) (*fuzz.Result, bool, time.Duration) {
	var spent time.Duration
	for {
		t := time.Now()
		res, done := c.RunSlice(context.Background(), sliceRounds)
		spent += time.Since(t)
		if done || res.Executions >= upTo {
			return res, done, spent
		}
	}
}

// probeCampaignLayers runs the first deep-w1 campaign paused at 25%, 50%
// and 100% of its budget for a snapshot encode, decode and resume, and
// replays its final queue. It then runs the campaign twice plain and twice
// with a conformance recorder, alternating, and returns the recorded
// transcript.
func (b *bench) probeCampaignLayers() ([]byte, error) {
	s := b.deepSpec(0)
	total := s.spec.Iterations
	t, opts, err := b.resolve(s.spec, 0)
	if err != nil {
		return nil, err
	}
	c := fuzz.NewTargetCampaign(t, opts)
	for _, pct := range []int{25, 50, 100} {
		runSlices(c, total*pct/100)
		sp := b.tr.start("snapshot.encode", s.spec.Name, 0)
		t0 := time.Now()
		data := c.Snapshot().EncodeBytes()
		enc := time.Since(t0)
		sp.end()
		sp = b.tr.start("snapshot.decode", s.spec.Name, 0)
		t0 = time.Now()
		snap, err := fuzz.DecodeSnapshot(bytes.NewReader(data))
		dec := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
		sp = b.tr.start("snapshot.resume", s.spec.Name, 0)
		t0 = time.Now()
		c, err = fuzz.ResumeTargetCampaign(t, snap)
		res := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		sfx := fmt.Sprintf("_%d", pct)
		b.set("snapshot.encode_ms"+sfx, "ms", enc.Seconds()*1000)
		b.set("snapshot.decode_ms"+sfx, "ms", dec.Seconds()*1000)
		b.set("snapshot.resume_ms"+sfx, "ms", res.Seconds()*1000)
		b.set("snapshot.bytes"+sfx, "B", float64(len(data)))
	}

	sp := b.tr.start("evm.replay_queue", s.spec.Name, 0)
	t0 := time.Now()
	txs := 0
	for _, seq := range c.QueueSequences() {
		c.Replay(seq)
		txs += len(seq)
	}
	replay := time.Since(t0)
	sp.end()
	b.set("evm.replay_us_per_tx", "us", replay.Seconds()*1e6/float64(txs))

	var plain, recorded time.Duration
	var data []byte
	for i := 0; i < 2; i++ {
		pc, err := b.newCampaign(s.spec, 0)
		if err != nil {
			return nil, err
		}
		plainRes, _, d := runSlices(pc, total)
		plain += d
		if i == 0 && fingerprint(c, c.ResultSoFar()) != fingerprint(pc, plainRes) {
			b.fail("%s: campaign resumed at 25/50/100%% differs from the uninterrupted run", s.spec.Name)
		}

		rc, err := b.newCampaign(s.spec, 0)
		if err != nil {
			return nil, err
		}
		rec := &conformance.Recorder{}
		rc.SetObserver(rec)
		res, _, d := runSlices(rc, total)
		recorded += d
		data = (&conformance.Transcript{
			Version:  conformance.Version,
			Contract: s.spec.Name,
			Options:  conformance.SummarizeOptions(opts.Normalized()),
			Records:  rec.Records(),
			Final:    conformance.Summarize(rc, res),
		}).EncodeBytes()
	}
	b.set("conformance.record_overhead_ratio", "ratio", recorded.Seconds()/plain.Seconds())
	b.set("conformance.transcript_mb", "MB", float64(len(data))/1e6)
	return data, nil
}

// probeStore times keccak over a transcript-sized payload and writes and
// reads it through a fresh store on the same filesystem as the workload's.
func (b *bench) probeStore(payload []byte) error {
	mb := float64(len(payload)) / 1e6
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 200*time.Millisecond {
		keccak.Sum256(payload)
		n++
	}
	b.set("keccak.mb_per_s", "MB/s", mb*float64(n)/time.Since(t0).Seconds())

	dir := filepath.Join(b.dir, "store-probe")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("probe-%d", i)
		sp := b.tr.start("store.put", "", 0)
		t := time.Now()
		err := st.Put(store.KindTranscript, "", name, payload)
		puts = append(puts, time.Since(t).Seconds()*1000/mb)
		sp.end()
		if err != nil {
			return err
		}
		sp = b.tr.start("store.get", "", 0)
		t = time.Now()
		got, err := st.Get(store.KindTranscript, "", name)
		gets = append(gets, time.Since(t).Seconds()*1000/mb)
		sp.end()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			b.fail("store probe: object read back differs from what was written")
		}
	}
	b.set("store.put_ms_per_mb", "ms/MB", median(puts))
	b.set("store.get_ms_per_mb", "ms/MB", median(gets))
	return nil
}

// probeParallel runs the same short-wN campaigns at Workers=nproc and at
// Workers=1; parallel efficiency is the first rate over nproc times the
// second.
func (b *bench) probeParallel() error {
	const n = 24
	rate := func(workers int) (float64, error) {
		execs := 0
		var spent time.Duration
		for i := 0; i < n; i++ {
			s := b.shortSpec(i)
			s.spec.Workers = workers
			run, err := b.runCampaign(s)
			if err != nil {
				return 0, err
			}
			execs += run.res.Executions
			spent += run.wall
		}
		return float64(execs) / spent.Seconds(), nil
	}
	wide, err := rate(b.nproc)
	if err != nil {
		return err
	}
	one, err := rate(1)
	if err != nil {
		return err
	}
	b.set("pool.parallel_efficiency", "ratio", wide/(float64(b.nproc)*one))
	return nil
}

// probeIngest loads every source-free fixture three times through the
// ingest layer.
func (b *bench) probeIngest() error {
	if err := b.loadFixtures(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		for _, n := range fixtureNames {
			fx := b.fixtures[n]
			if _, _, err := b.resolve(service.CampaignSpec{Name: n, Bytecode: fx.bytecode, ABI: fx.abi}, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
