package fuzz

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"mufuzz/internal/analysis"
	"mufuzz/internal/evm"
	"mufuzz/internal/state"
)

// prefixCache memoizes the world state reached after executing a sequence
// prefix, so a mutated child that shares a prefix with an earlier execution
// can resume from the checkpoint instead of re-running every transaction.
//
// This implements the improvement the paper sketches in §VI ("not to
// re-execute the previous transactions, but to move directly to some
// intermediate state"). Entries capture everything semantically relevant:
// the post-prefix state, the cross-transaction storage taint, and the branch
// events of the prefix (replayed into the campaign's feedback fold so
// coverage/distance bookkeeping is identical to a full execution).
//
// Concurrency: the cache is striped across prefixShards. Each shard keeps an
// authoritative live map, mutated in place under the shard mutex, and
// publishes an immutable copy of it behind an atomic pointer. Readers — the
// hot per-execution lookup and store-policy scans of every worker — never
// take a lock: they load the current published snapshot and read a map
// nothing will ever mutate. Writers serialize on the per-shard mutex and
// republish only every publishEvery stores: under campaign churn the cache
// stores a new checkpoint almost every execution (the FIFO keeps turning
// over), so copying the map per store was the single largest allocation site
// of the whole engine. Batching amortizes the copy to 1/publishEvery stores;
// the entries a stale snapshot is missing become visible a few executions
// later, which cache transparency makes semantically invisible (the
// conformance matrix pins cache-on ≡ cache-off transcripts).
//
// The store path dedups against the live map under the lock (contains,
// storeKeyed), so delayed publication never re-materializes the state fork
// and taint snapshot for a prefix that is already checkpointed.
//
// Entries are immutable once stored: readers copy entry.st outside any lock,
// writers only ever insert or evict whole entries. Eviction is FIFO per
// shard. A reader holding a stale snapshot may resume from an entry that was
// just evicted — harmless, since entries stay valid forever and the
// cache-transparency invariant makes their use semantically invisible.
type prefixCache struct {
	shards [prefixShards]prefixShard
	hits   atomic.Int64
	misses atomic.Int64
}

// prefixShards is the stripe count. Sixteen shards keep any single shard's
// copy-on-write republish small while costing only a few hundred bytes of
// overhead.
const prefixShards = 16

// prefixSnap is one shard's immutable published generation.
type prefixSnap map[uint64]*prefixEntry

// publishEvery is the store-batching factor: a shard republishes its
// snapshot after this many live-map mutations. Higher values amortize the
// copy further but widen the window in which fresh checkpoints are invisible
// to the lock-free read path.
const publishEvery = 8

type prefixShard struct {
	// mu guards live, order, and unpub; readers go through snap.
	mu sync.Mutex
	// live is the authoritative entry map, mutated in place under mu.
	live prefixSnap
	// snap is the published immutable copy the lock-free readers use; it
	// trails live by at most publishEvery-1 stores.
	snap  atomic.Pointer[prefixSnap]
	order []uint64 // FIFO eviction order
	max   int      // per-shard capacity
	unpub int      // live mutations since the last publish
}

type prefixEntry struct {
	// txs is the prefix length the entry checkpoints.
	txs int
	// st is the world state after the prefix (committed). Never mutated
	// after store; resuming executions copy it.
	st *state.State
	// taint is the EVM's cross-transaction storage taint after the prefix.
	taint map[evm.StorageKey]evm.Taint
	// branchesByTx are the contract's branch hits of the prefix, one batch
	// per transaction, so the feedback fold (per-transaction weight traces)
	// sees exactly what a re-execution would produce.
	branchesByTx [][]analysis.BranchHit
	// reports are the prefix transactions' oracle reports, replayed into the
	// outcome on a hit. Absorption is idempotent on the coordinator, so the
	// replay is a semantic no-op for a sequential campaign — but it makes
	// every outcome self-contained, which keeps proof-of-concept capture
	// deterministic at any worker count regardless of which worker happened to
	// populate the cache first.
	reports []txReport
	// nestedDepth is the deepest branch-site nesting reached in the prefix.
	nestedDepth int
}

// newPrefixCache builds a cache holding about max entries in total, striped
// evenly across the shards.
func newPrefixCache(max int) *prefixCache {
	perShard := (max + prefixShards - 1) / prefixShards
	if perShard < 1 {
		perShard = 1
	}
	pc := &prefixCache{}
	empty := prefixSnap{}
	for i := range pc.shards {
		pc.shards[i].live = prefixSnap{}
		pc.shards[i].snap.Store(&empty)
		pc.shards[i].max = perShard
	}
	return pc
}

func (pc *prefixCache) shard(key uint64) *prefixShard {
	return &pc.shards[key%prefixShards]
}

// view returns the shard's current immutable generation.
func (sh *prefixShard) view() prefixSnap { return *sh.snap.Load() }

// fnv-1a, hand-rolled: the stdlib hash.Hash64 interface costs an allocation
// and a virtual call per Write, and the hot path hashes every prefix of every
// sequence per execution.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvAddByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// hashTx folds one transaction into a running prefix hash.
func hashTx(h uint64, tx *TxInput) uint64 {
	h = fnvAddString(h, tx.Func)
	h = fnvAddByte(h, 0)
	h = fnvAdd(h, tx.Args)
	v := tx.Value.Bytes32()
	h = fnvAdd(h, v[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(tx.Sender))
	h = fnvAdd(h, buf[:])
	// World extensions fold only when present, so every single-contract
	// sequence keeps the exact hash it had before worlds existed and the
	// checkpoint cache never aliases a cross-contract prefix onto a plain one.
	if tx.Callee != 0 {
		h = fnvAddByte(h, 0xfd)
		binary.LittleEndian.PutUint64(buf[:], uint64(tx.Callee))
		h = fnvAdd(h, buf[:])
	}
	if len(tx.Attacker) > 0 {
		h = fnvAddByte(h, 0xfc)
		h = fnvAdd(h, tx.Attacker)
	}
	return fnvAddByte(h, 0xfe)
}

// hashPrefix fingerprints the first n transactions of a sequence.
func hashPrefix(seq Sequence, n int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < n && i < len(seq); i++ {
		h = hashTx(h, &seq[i])
	}
	return h
}

// prefixHashes computes the keys of every proper prefix of seq in one pass:
// out[k] is hashPrefix(seq, k+1) for k in [0, len(seq)-2]. The hash is a pure
// running fold over transactions, so all prefixes cost one sequence walk —
// the per-execution lookup and store-policy scans reuse the same table
// instead of rehashing O(n²) bytes. buf is an optional reusable backing.
func prefixHashes(seq Sequence, buf []uint64) []uint64 {
	if len(seq) < 2 {
		return buf[:0]
	}
	out := buf[:0]
	h := uint64(fnvOffset64)
	for i := 0; i < len(seq)-1; i++ {
		h = hashTx(h, &seq[i])
		out = append(out, h)
	}
	return out
}

// lookup returns the entry for the longest cached proper prefix of seq
// (at least 1 transaction, at most len(seq)-1 so the suffix still runs).
// The txs check guards against fnv collisions across prefix lengths: a hit
// only counts when the stored entry checkpoints exactly n transactions.
// Reads the authoritative live state; the hot path uses prefixView instead.
func (pc *prefixCache) lookup(seq Sequence) *prefixEntry {
	if pc == nil {
		return nil
	}
	return pc.lookupHashed(prefixHashes(seq, nil))
}

// lookupHashed is lookup over a precomputed prefix-hash table (hashes[k] is
// the key of the k+1-transaction prefix, as built by prefixHashes).
func (pc *prefixCache) lookupHashed(hashes []uint64) *prefixEntry {
	if pc == nil {
		return nil
	}
	for n := len(hashes); n >= 1; n-- {
		key := hashes[n-1]
		sh := pc.shard(key)
		sh.mu.Lock()
		e, ok := sh.live[key]
		sh.mu.Unlock()
		if ok && e.txs == n {
			pc.hits.Add(1)
			return e
		}
	}
	pc.misses.Add(1)
	return nil
}

// contains reports whether a prefix hash is already checkpointed,
// authoritatively: it consults the live map under the shard lock, so the
// store path never duplicates the fork + taint materialization for an entry
// that is stored but not yet published. Called at most once per execution;
// the per-probe scans go through prefixView.contains.
func (pc *prefixCache) contains(key uint64) bool {
	if pc == nil {
		return false
	}
	sh := pc.shard(key)
	sh.mu.Lock()
	_, ok := sh.live[key]
	sh.mu.Unlock()
	return ok
}

// admissible reports whether a prefix's branch log is small enough to
// cache. Oversized logs are not cached (loop-heavy prefixes would make
// replaying the fold as costly as re-execution); callers should check this
// BEFORE materializing the state fork and taint snapshot a store needs, or
// an inadmissible prefix pays that cost on every execution forever (its key
// never enters the cache, so the contains() pre-check never short-circuits).
func (pc *prefixCache) admissible(branchesByTx [][]analysis.BranchHit) bool {
	total := 0
	for _, b := range branchesByTx {
		total += len(b)
	}
	return total <= 4096
}

// storeKeyed records a checkpoint for a pre-computed prefix hash. The first
// writer of a key wins; concurrent proposals for the same prefix are
// deduplicated against the live map under the shard's lock. The live map is
// mutated in place; a fresh immutable snapshot is published only every
// publishEvery stores, so in-flight readers keep their consistent (slightly
// stale) generation and the per-store copy cost is amortized away.
func (pc *prefixCache) storeKeyed(key uint64, n int, st *state.State, taint map[evm.StorageKey]evm.Taint, branchesByTx [][]analysis.BranchHit, reports []txReport, nestedDepth int) {
	if pc == nil || n < 1 || !pc.admissible(branchesByTx) {
		return
	}
	// Shallow copy: the outer slice is re-appended by the caller and must be
	// pinned, but the per-transaction event batches are immutable once
	// built (executors construct them fresh per transaction and nothing
	// mutates them afterward), so entries share them.
	cp := append([][]analysis.BranchHit(nil), branchesByTx...)
	entry := &prefixEntry{
		txs:          n,
		st:           st,
		taint:        taint,
		branchesByTx: cp,
		reports:      append([]txReport(nil), reports...),
		nestedDepth:  nestedDepth,
	}

	sh := pc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.live[key]; dup {
		return
	}
	if len(sh.order) >= sh.max {
		oldest := sh.order[0]
		sh.order = sh.order[1:]
		delete(sh.live, oldest)
	}
	sh.live[key] = entry
	sh.order = append(sh.order, key)
	sh.unpub++
	if sh.unpub >= publishEvery {
		sh.publishLocked(pc)
	}
}

// publishLocked copies the live map into a fresh immutable snapshot and
// swaps it in for the lock-free readers. Caller holds sh.mu.
func (sh *prefixShard) publishLocked(pc *prefixCache) {
	next := make(prefixSnap, len(sh.live))
	for k, v := range sh.live {
		next[k] = v
	}
	sh.snap.Store(&next)
	sh.unpub = 0
}

// flush publishes every shard's pending live entries immediately. Tests use
// it to make a just-stored checkpoint visible to the lock-free read path
// without waiting out the publish batch.
func (pc *prefixCache) flush() {
	if pc == nil {
		return
	}
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		if sh.unpub > 0 {
			sh.publishLocked(pc)
		}
		sh.mu.Unlock()
	}
}

// len returns the total number of cached entries (diagnostics and tests).
func (pc *prefixCache) len() int {
	if pc == nil {
		return 0
	}
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += len(sh.live)
		sh.mu.Unlock()
	}
	return n
}

// stats reports cache hits and misses.
func (pc *prefixCache) stats() (hits, misses int) {
	if pc == nil {
		return 0, 0
	}
	return int(pc.hits.Load()), int(pc.misses.Load())
}

// prefixView is one execution's read affinity over the cache: the 16 shard
// snapshots, loaded once per execution instead of once per probe. A sequence
// walk probes the cache O(len²) times across lookup and store-policy scans;
// through the view those probes are plain map reads on execution-local
// pointers — no atomics, no shared cache lines. The view misses only what
// was published after it loaded, which cache transparency makes
// semantically invisible: a missed fresh entry only costs a longer
// re-execution, a just-evicted entry is still valid. The view lives no longer than the execution, so an idle
// executor pins no generation of entries the cache has since evicted.
type prefixView struct {
	pc    *prefixCache
	snaps [prefixShards]prefixSnap
}

// load points the view at pc's current shard snapshots.
func (v *prefixView) load(pc *prefixCache) {
	v.pc = pc
	if pc == nil {
		return
	}
	for i := range v.snaps {
		v.snaps[i] = pc.shards[i].view()
	}
}

// lookupHashed mirrors prefixCache.lookupHashed over the view's snapshots.
func (v *prefixView) lookupHashed(hashes []uint64) *prefixEntry {
	if v.pc == nil {
		return nil
	}
	for n := len(hashes); n >= 1; n-- {
		key := hashes[n-1]
		if e, ok := v.snaps[key%prefixShards][key]; ok && e.txs == n {
			v.pc.hits.Add(1)
			return e
		}
	}
	v.pc.misses.Add(1)
	return nil
}

// contains mirrors prefixCache.contains over the view's snapshots.
func (v *prefixView) contains(key uint64) bool {
	if v.pc == nil {
		return false
	}
	_, ok := v.snaps[key%prefixShards][key]
	return ok
}
