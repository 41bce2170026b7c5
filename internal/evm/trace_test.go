package evm

import (
	"testing"

	"mufuzz/internal/u256"
)

// TestSinksOnlyForOracleTaint pins the sink filter: a value whose taint has
// no OracleTaint bit (calldata, msg.sender, a call status word) reaching any
// sink records nothing, and each OracleTaint source reaching each sink kind
// records exactly the sinks that kind implies, carrying the source's taint.
// Every program runs under the IR and the reference switch loop.
func TestSinksOnlyForOracleTaint(t *testing.T) {
	sources := []struct {
		taint Taint
		push  func(a *Assembler)
	}{
		{TaintInput, func(a *Assembler) { a.PushUint(0).Op(CALLDATALOAD) }},
		{TaintCaller, func(a *Assembler) { a.Op(CALLER) }},
		{TaintCallResult, func(a *Assembler) {
			a.PushUint(0).PushUint(0).PushUint(0).PushUint(0).PushUint(0)
			a.PushUint(0xbeef).PushUint(0).Op(CALL)
		}},
		{TaintTimestamp, func(a *Assembler) { a.Op(TIMESTAMP) }},
		{TaintNumber, func(a *Assembler) { a.Op(NUMBER) }},
		{TaintOrigin, func(a *Assembler) { a.Op(ORIGIN) }},
		{TaintBalance, func(a *Assembler) { a.Op(ADDRESS).Op(BALANCE) }},
		{TaintOverflow, func(a *Assembler) { a.Push(u256.Max).PushUint(2).Op(ADD) }},
	}
	sinks := []struct {
		name  string
		kinds []SinkKind
		use   func(a *Assembler, push func(a *Assembler))
	}{
		{"jumpi", []SinkKind{SinkJumpCond}, func(a *Assembler, push func(a *Assembler)) {
			push(a)
			a.JumpITo("over").Label("over")
		}},
		{"lt", []SinkKind{SinkCompare}, func(a *Assembler, push func(a *Assembler)) {
			a.PushUint(0)
			push(a)
			a.Op(LT, POP)
		}},
		{"eq", []SinkKind{SinkCompare, SinkEq}, func(a *Assembler, push func(a *Assembler)) {
			a.PushUint(0)
			push(a)
			a.Op(EQ, POP)
		}},
		{"call-value", []SinkKind{SinkCallValue}, func(a *Assembler, push func(a *Assembler)) {
			a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
			push(a)
			a.PushUint(0xbeef).PushUint(0).Op(CALL, POP)
		}},
		{"call-target", []SinkKind{SinkCallTarget}, func(a *Assembler, push func(a *Assembler)) {
			a.PushUint(0).PushUint(0).PushUint(0).PushUint(0).PushUint(0)
			push(a)
			a.PushUint(0).Op(CALL, POP)
		}},
		{"sstore", []SinkKind{SinkStore}, func(a *Assembler, push func(a *Assembler)) {
			push(a)
			a.PushUint(0).Op(SSTORE)
		}},
	}
	input := make([]byte, 32)
	input[31] = 1
	for _, src := range sources {
		for _, sk := range sinks {
			a := NewAssembler()
			sk.use(a, src.push)
			a.Op(STOP)
			code := a.MustBuild()
			var want []SinkKind
			if src.taint&OracleTaint != 0 {
				want = sk.kinds
			}
			for _, disableIR := range []bool{false, true} {
				e, sender, contract := testEnv(t, code)
				e.DisableIR = disableIR
				if _, err := run(t, e, sender, contract, u256.Zero, input); err != nil {
					t.Fatalf("taint %#x into %s: %v", src.taint, sk.name, err)
				}
				got := e.Trace.Sinks
				if len(got) != len(want) {
					t.Fatalf("taint %#x into %s (DisableIR=%v): %d sinks %+v, want kinds %v",
						src.taint, sk.name, disableIR, len(got), got, want)
				}
				for i, s := range got {
					if s.Kind != want[i] || s.Taint != src.taint || s.Addr != contract {
						t.Errorf("taint %#x into %s (DisableIR=%v): sink %d = %+v, want kind %d",
							src.taint, sk.name, disableIR, i, s, want[i])
					}
				}
			}
		}
	}
}
