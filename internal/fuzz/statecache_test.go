package fuzz

import (
	"sync"
	"testing"

	"mufuzz/internal/analysis"
	"mufuzz/internal/evm"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

func TestHashPrefixDistinguishesSequences(t *testing.T) {
	a := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}}}
	b := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 3}}}
	c := Sequence{{Func: "__ctor"}, {Func: "g", Args: []byte{1, 2}}}
	d := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}, Value: u256.One}}
	e := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}, Sender: 1}}
	h := func(s Sequence) uint64 { return hashPrefix(s, 2) }
	hashes := map[uint64]string{}
	for name, s := range map[string]Sequence{"a": a, "b": b, "c": c, "d": d, "e": e} {
		hv := h(s)
		if prev, dup := hashes[hv]; dup {
			t.Errorf("hash collision between %s and %s", prev, name)
		}
		hashes[hv] = name
	}
	// prefix length participates
	if hashPrefix(a, 1) == hashPrefix(a, 2) {
		t.Error("different prefix lengths must hash differently")
	}
	// identical prefixes hash equal regardless of suffix
	long := append(a.Clone(), TxInput{Func: "tail"})
	if hashPrefix(a, 2) != hashPrefix(long, 2) {
		t.Error("same prefix must hash equal under different suffixes")
	}
}

// TestPrefixCacheFIFOEvictionPerShard pins the eviction policy of the
// sharded cache: each shard evicts its own oldest entry once it reaches its
// per-shard capacity. Keys are crafted to land in one shard (key mod
// prefixShards selects it) so the FIFO order is observable.
func TestPrefixCacheFIFOEvictionPerShard(t *testing.T) {
	pc := newPrefixCache(2 * prefixShards) // per-shard capacity 2
	// All three keys land in shard 3.
	keys := []uint64{3, 3 + prefixShards, 3 + 2*prefixShards}
	for _, k := range keys {
		pc.storeKeyed(k, 1, nil, nil, nil, nil, 0)
	}
	if pc.len() != 2 {
		t.Errorf("cache size = %d, want 2 (per-shard FIFO eviction)", pc.len())
	}
	if pc.contains(keys[0]) {
		t.Error("oldest entry should have been evicted")
	}
	if !pc.contains(keys[1]) || !pc.contains(keys[2]) {
		t.Error("newer entries must remain")
	}
	// Entries in other shards are untouched by shard 3's eviction.
	pc.storeKeyed(4, 1, nil, nil, nil, nil, 0)
	pc.storeKeyed(3+3*prefixShards, 1, nil, nil, nil, nil, 0) // evicts keys[1]
	if !pc.contains(4) {
		t.Error("eviction must be per shard")
	}
	if pc.contains(keys[1]) {
		t.Error("shard FIFO should have evicted its second-oldest entry")
	}
}

// TestPrefixCacheCollisionKeying pins the txs guard in lookup: an entry
// stored under a hash that collides with a different prefix length must not
// be served for that length.
func TestPrefixCacheCollisionKeying(t *testing.T) {
	seq := Sequence{{Func: "__ctor"}, {Func: "f"}, {Func: "g"}}
	// Simulate an fnv collision: the hash of the 2-tx prefix maps to an
	// entry that checkpoints only 1 transaction.
	collided := hashPrefix(seq, 2)
	pc := newPrefixCache(8)
	pc.storeKeyed(collided, 1, state.New(), nil, nil, nil, 0)
	if e := pc.lookup(seq); e != nil {
		t.Errorf("lookup served a collided entry (txs=%d) for a 2-tx prefix", e.txs)
	}
	hits, misses := pc.stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
	// A correctly keyed entry is served.
	pc.storeKeyed(hashPrefix(seq, 2), 2, state.New(), nil, nil, nil, 0)
	// (same key — the collided entry occupies it, so lookup still rejects)
	if pc.contains(collided) && pc.lookup(seq) != nil {
		t.Error("occupied colliding key must stay rejected, not overwritten")
	}
}

// TestPrefixCacheConcurrentStress hammers one cache from many goroutines
// doing lookups, inserts, and stats concurrently; run under -race this pins
// the thread-safety of the sharded implementation.
func TestPrefixCacheConcurrentStress(t *testing.T) {
	pc := newPrefixCache(32)
	seqs := make([]Sequence, 64)
	for i := range seqs {
		seqs[i] = Sequence{
			{Func: "__ctor"},
			{Func: "f", Args: []byte{byte(i)}},
			{Func: "g", Args: []byte{byte(i), byte(i >> 4)}},
		}
	}
	st := state.New()
	st.SetBalance(state.AddressFromUint(1), u256.One)
	st.Commit()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				seq := seqs[(round+w*7)%len(seqs)]
				if e := pc.lookup(seq); e != nil {
					if e.txs < 1 || e.txs >= len(seq) {
						t.Errorf("bogus entry txs=%d", e.txs)
					}
					// readers fork entry state outside locks (CoW resume)
					// and may immediately mutate their fork
					ch := e.st.Fork()
					ch.SetBalance(state.AddressFromUint(uint64(w)), u256.One)
				}
				n := 1 + (round+w)%2
				key := hashPrefix(seq, n)
				if !pc.contains(key) {
					pc.storeKeyed(key, n, st.Fork(), map[evm.StorageKey]evm.Taint{},
						[][]analysis.BranchHit{{}}, nil, 0)
				}
				pc.stats()
			}
		}(w)
	}
	wg.Wait()
	if pc.len() == 0 {
		t.Error("stress run stored nothing")
	}
	hits, misses := pc.stats()
	if hits+misses == 0 {
		t.Error("stress run recorded no lookups")
	}
}

func TestNilPrefixCacheSafe(t *testing.T) {
	var pc *prefixCache
	if pc.lookup(Sequence{{Func: "x"}, {Func: "y"}}) != nil {
		t.Error("nil cache lookup must miss")
	}
	pc.storeKeyed(1, 1, nil, nil, nil, nil, 0) // must not panic
	if pc.contains(1) {
		t.Error("nil cache contains nothing")
	}
	if pc.len() != 0 {
		t.Error("nil cache is empty")
	}
	h, m := pc.stats()
	if h != 0 || m != 0 {
		t.Error("nil cache has no stats")
	}
}

// The decisive property: a campaign with the checkpoint cache must produce
// exactly the same coverage, findings, and execution count as one without —
// the cache is a pure performance optimization.
func TestPrefixCacheEquivalence(t *testing.T) {
	for _, src := range []string{crowdsaleSrc} {
		comp := mustCompile(t, src)
		for seed := int64(1); seed <= 3; seed++ {
			with := Run(comp, Options{Strategy: MuFuzz(), Seed: seed, Iterations: 600})
			without := Run(comp, Options{Strategy: MuFuzz(), Seed: seed, Iterations: 600, NoPrefixCache: true})
			if with.CoveredEdges != without.CoveredEdges {
				t.Errorf("seed %d: coverage diverges with cache: %d vs %d",
					seed, with.CoveredEdges, without.CoveredEdges)
			}
			if len(with.Findings) != len(without.Findings) {
				t.Errorf("seed %d: findings diverge: %d vs %d",
					seed, len(with.Findings), len(without.Findings))
			}
			if with.Executions != without.Executions {
				t.Errorf("seed %d: executions diverge: %d vs %d",
					seed, with.Executions, without.Executions)
			}
		}
	}
}

func TestPrefixCacheGetsHits(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 2, Iterations: 800})
	c.Run()
	hits, misses := c.PrefixCacheStats()
	if hits == 0 {
		t.Errorf("cache never hit (misses=%d); mutated children share prefixes, hits expected", misses)
	}
	t.Logf("prefix cache: %d hits, %d misses (%.0f%% hit rate)",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}

func BenchmarkCampaignWithPrefixCache(b *testing.B) {
	comp := mustCompile(b, crowdsaleSrc)
	for i := 0; i < b.N; i++ {
		Run(comp, Options{Strategy: MuFuzz(), Seed: int64(i), Iterations: 400})
	}
}

func BenchmarkCampaignWithoutPrefixCache(b *testing.B) {
	comp := mustCompile(b, crowdsaleSrc)
	for i := 0; i < b.N; i++ {
		Run(comp, Options{Strategy: MuFuzz(), Seed: int64(i), Iterations: 400, NoPrefixCache: true})
	}
}
