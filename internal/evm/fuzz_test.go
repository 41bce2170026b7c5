package evm

import (
	"bytes"
	"reflect"
	"runtime/metrics"
	"testing"
	"time"

	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// FuzzInterpreterNoCrash runs arbitrary bytecode through the interpreter:
// whatever the code does — invalid opcodes, stack underflow, jumps into
// immediates, unbounded loops, self-calls — execution must return (an error
// or a result), never panic. Gas and the step ceiling bound the run time.
func FuzzInterpreterNoCrash(f *testing.F) {
	// a plausible code seed: PUSH1 0 CALLDATALOAD PUSH1 8 JUMPI JUMPDEST STOP
	f.Add([]byte{0x60, 0x00, 0x35, 0x60, 0x08, 0x57, 0x5b, 0x00}, []byte{1}, uint64(0))
	// storage write + call + selfdestruct
	f.Add([]byte{0x60, 0x01, 0x60, 0x00, 0x55, 0x33, 0xff}, []byte{}, uint64(5))
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, code, input []byte, valueSeed uint64) {
		if len(code) > 4096 || len(input) > 4096 {
			return // keep individual executions fast; size adds no new behavior
		}
		deployer := state.AddressFromUint(0xd431)
		sender := state.AddressFromUint(0x0a11)
		contract := state.AddressFromUint(0xc0de)

		st := state.New()
		st.SetBalance(sender, u256.One.Lsh(120))
		st.CreateContract(contract, code, deployer)
		st.Commit()

		e := New(st, BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000})
		e.Trace = NewTrace()
		_, err := e.Transact(sender, contract, u256.New(valueSeed%1_000_000), input, 200_000)
		_ = err // errors are expected; only panics fail the target
	})
}

// FuzzIRvsReference runs the same bytecode and calldata under the compiled
// IR and under the reference switch loop (DisableIR) and requires identical
// observable behaviour: return data, error, step count, the whole trace
// (branches with their Target flag and EdgeRef, sinks, calls, SSTOREs,
// overflows and the rest) and the touched accounts' final state. The code is
// deployed twice, at the indexed address and at a peer the code can call, so
// traces mix target and non-target frames.
//
// Each engine runs under a step ceiling and a watchdog that fails the input
// when it outlives a wall-clock deadline or grows the heap past a bound: go
// test -fuzz has no per-input timeout, so a hang would otherwise read as 0
// execs/s rather than as a failure.
func FuzzIRvsReference(f *testing.F) {
	// Zero-size CALLDATACOPY at offset 2^256-1: once walked the taint map
	// past 2^64 until memory ran out.
	f.Add([]byte{0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x19, 0x37, 0x00}, []byte{})
	// PUSH1 0 CALLDATALOAD PUSH1 8 JUMPI JUMPDEST STOP: one tainted branch.
	f.Add([]byte{0x60, 0x00, 0x35, 0x60, 0x08, 0x57, 0x5b, 0x00}, []byte{1})
	// TIMESTAMP PUSH1 5 LT PUSH1 8 JUMPI ... STOP: a compare-fused branch on
	// block state (an oracle-relevant sink).
	f.Add([]byte{0x42, 0x60, 0x05, 0x10, 0x60, 0x08, 0x57, 0x00, 0x5b, 0x00}, []byte{})
	// CALL the peer (0x0b) with all gas, then branch on the status word.
	f.Add([]byte{
		0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, // out/in/value
		0x60, 0x0b, 0x5a, 0xf1, // PUSH1 0x0b GAS CALL
		0x60, 0x13, 0x57, 0x00, 0x00, 0x5b, 0x00,
	}, []byte{})
	f.Fuzz(func(t *testing.T, code, input []byte) {
		if len(code) > 4096 || len(input) > 4096 {
			return // keep individual executions fast; size adds no new behavior
		}
		ir := runDifferential(t, code, input, false)
		ref := runDifferential(t, code, input, true)
		if !bytes.Equal(ir.ret, ref.ret) {
			t.Fatalf("return data: IR %x, reference %x", ir.ret, ref.ret)
		}
		if ir.err != ref.err {
			t.Fatalf("error: IR %q, reference %q", ir.err, ref.err)
		}
		if ir.trace.Steps != ref.trace.Steps {
			t.Fatalf("steps: IR %d, reference %d", ir.trace.Steps, ref.trace.Steps)
		}
		if !reflect.DeepEqual(ir.trace, ref.trace) {
			t.Fatalf("traces diverge:\nIR        %+v\nreference %+v", ir.trace, ref.trace)
		}
		for _, a := range []state.Address{diffSender, diffContract, diffPeer} {
			if !ir.st.AccountEqual(ref.st, a) {
				t.Fatalf("account %s diverges after the transaction", a)
			}
		}
	})
}

var (
	diffSender   = state.AddressFromUint(0x0a11)
	diffContract = state.AddressFromUint(0xc0de)
	// diffPeer is small so random code reaches it with a PUSH1.
	diffPeer = state.AddressFromUint(0x0b)
)

// diffResult is one engine's observable outcome of a differential run.
type diffResult struct {
	ret   []byte
	err   string
	trace *Trace
	st    *state.State
}

// Per-input bounds of the differential target.
const (
	diffMaxSteps = 50_000
	diffDeadline = 5 * time.Second
	diffMaxHeap  = 512 << 20
)

// runDifferential executes code once on a fresh world under one engine,
// failing t when the run outlives diffDeadline or the heap grows past
// diffMaxHeap.
func runDifferential(t *testing.T, code, input []byte, disableIR bool) diffResult {
	t.Helper()
	st := state.New()
	st.SetBalance(diffSender, u256.One.Lsh(120))
	st.CreateContract(diffContract, code, diffSender)
	st.CreateContract(diffPeer, code, diffSender)
	st.Commit()
	e := New(st, BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000})
	e.Trace = NewTrace()
	e.CollectPCs = true
	e.MaxSteps = diffMaxSteps
	e.BranchIndex = stubIndexer{}
	e.BranchIndexAddr = diffContract
	e.DisableIR = disableIR

	done := make(chan diffResult, 1)
	go func() {
		ret, err := e.Transact(diffSender, diffContract, u256.New(7), input, 1_000_000)
		r := diffResult{ret: ret, trace: e.Trace, st: st}
		if err != nil {
			r.err = err.Error()
		}
		done <- r
	}()
	engine := "IR"
	if disableIR {
		engine = "reference"
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	deadline := time.After(diffDeadline)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case r := <-done:
			return r
		case <-deadline:
			t.Fatalf("%s engine did not return within %v", engine, diffDeadline)
		case <-tick.C:
			if metrics.Read(heap); heap[0].Value.Uint64() > diffMaxHeap {
				t.Fatalf("%s engine grew the heap past %d MB", engine, diffMaxHeap>>20)
			}
		}
	}
}
