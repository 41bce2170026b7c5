package fuzz

// goldenLegacyFingerprints pin the flag-off path: the "MuFuzz w/o comparison
// feedback" ablation (CmpFeedback and MinedDictionary disabled) must
// reproduce them byte for byte, modulo the strategy name — see
// TestGoldenCmpFeedbackOffLegacy. Both flags gate every rng draw they add,
// so changes to the flag-on path cannot move these strings. Regenerated once
// when the engine moved to a single round engine and a single generator
// (splitMix); regenerate only after an intentional schedule change.
var goldenLegacyFingerprints = map[string]string{
	"crowdsale-seed1": `strategy=MuFuzz covered=20/24 cov=0.833333 execs=300 queue=8 masks=4 seqmut=77
findings=[IO@152:ADD wraps mod 2^256 and the result persists]
classes=[IO]
repro=[IO:__ctor>invest>invest>refund>withdraw>invest]
t 1 0.541667
t 5 0.583333
t 8 0.625000
t 10 0.666667
t 66 0.833333
`,
	"crowdsale-seed7": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=9 masks=4 seqmut=74
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 5 0.583333
t 11 0.625000
t 20 0.666667
t 108 0.833333
t 199 0.875000
`,
	"crowdsale-buggy-seed1": `strategy=MuFuzz covered=21/26 cov=0.807692 execs=300 queue=8 masks=4 seqmut=79
findings=[BD@283:block state (timestamp/number) influences a branch or call; BD@288:block state (timestamp/number) influences a branch or call]
classes=[BD]
repro=[BD:__ctor>invest>invest>refund>withdraw]
t 1 0.500000
t 5 0.538462
t 8 0.576923
t 10 0.615385
t 66 0.807692
`,
}

// goldenFingerprints pins the observable behavior of the MuFuzz default at
// Workers=1 — which, with one round engine whose schedule is a pure function
// of Seed, is the behavior at every worker count. Regenerated when the
// engine moved to a single round engine and a single generator (splitMix).
// Regenerate with MUFUZZ_GOLDEN_REGEN=1 only after an intentional behavior
// change.
var goldenFingerprints = map[string]string{
	"crowdsale-seed1": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=10 masks=3 seqmut=78
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 5 0.583333
t 7 0.625000
t 18 0.666667
t 69 0.833333
t 120 0.875000
`,
	"crowdsale-seed7": `strategy=MuFuzz covered=21/24 cov=0.875000 execs=300 queue=9 masks=4 seqmut=74
findings=[]
classes=[]
repro=[]
t 1 0.541667
t 5 0.583333
t 11 0.625000
t 20 0.666667
t 108 0.833333
t 210 0.875000
`,
	"crowdsale-buggy-seed1": `strategy=MuFuzz covered=22/26 cov=0.846154 execs=300 queue=9 masks=4 seqmut=72
findings=[BD@283:block state (timestamp/number) influences a branch or call; BD@288:block state (timestamp/number) influences a branch or call]
classes=[BD]
repro=[BD:__ctor>invest>invest>refund>withdraw]
t 1 0.500000
t 5 0.538462
t 7 0.576923
t 18 0.615385
t 69 0.807692
t 150 0.846154
`,
}
