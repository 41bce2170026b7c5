package evm

import (
	"testing"
	"time"

	"mufuzz/internal/u256"
)

// TestZeroSizeMemoryOpAtMaxOffsetReturns pins the overflow-safe word-range
// walk: zero-size memory operations at offset 2^256-1 touch no memory, so
// they must return at once. The word-taint loops once started at the
// clamped offset's aligned word and stepped past 2^64, walking (and, for
// CALLDATACOPY, inserting into) the taint map until memory ran out. Each
// program runs under the compiled IR and the reference switch loop with a
// one-second deadline.
func TestZeroSizeMemoryOpAtMaxOffsetReturns(t *testing.T) {
	programs := []struct {
		name string
		code []byte
	}{
		// PUSH1 0 (size), PUSH1 0 (src), PUSH1 0 NOT (dst = 2^256-1),
		// CALLDATACOPY, STOP.
		{"calldatacopy", []byte{0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x19, 0x37, 0x00}},
		// Taint word 0 with a 32-byte CALLDATACOPY, then KECCAK256 of zero
		// bytes at offset 2^256-1 (the taint union walks the range).
		{"keccak256", []byte{
			0x60, 0x20, 0x60, 0x00, 0x60, 0x00, 0x37, // CALLDATACOPY(0, 0, 32)
			0x60, 0x00, 0x60, 0x00, 0x19, 0x20, 0x50, // POP(KECCAK256(2^256-1, 0))
			0x00,
		}},
	}
	for _, p := range programs {
		for _, disableIR := range []bool{false, true} {
			name := p.name + "/ir"
			if disableIR {
				name = p.name + "/switch"
			}
			t.Run(name, func(t *testing.T) {
				e, sender, contract := testEnv(t, p.code)
				e.DisableIR = disableIR
				errc := make(chan error, 1)
				go func() {
					_, err := e.Transact(sender, contract, u256.Zero, make([]byte, 32), 1_000_000)
					errc <- err
				}()
				select {
				case err := <-errc:
					if err != nil {
						t.Fatalf("transaction failed: %v", err)
					}
				case <-time.After(time.Second):
					t.Fatal("zero-size memory op at offset 2^256-1 did not return within 1s")
				}
			})
		}
	}
}

// TestMemWords pins the word-range helper's edges: empty ranges span no
// words anywhere, spans count every overlapped word, and ranges running past
// 2^64 clamp at the last addressable word instead of wrapping.
func TestMemWords(t *testing.T) {
	const max = ^uint64(0)
	cases := []struct {
		off, size, first, n uint64
	}{
		{0, 0, 0, 0},
		{max, 0, 0, 0},
		{0, 1, 0, 1},
		{0, 32, 0, 1},
		{31, 2, 0, 2},
		{64, 33, 64, 2},
		{max, 1, max &^ 31, 1},
		{max - 40, 100, (max - 40) &^ 31, 2},
	}
	for _, c := range cases {
		first, n := memWords(c.off, c.size)
		if first != c.first || n != c.n {
			t.Errorf("memWords(%d, %d) = (%d, %d), want (%d, %d)", c.off, c.size, first, n, c.first, c.n)
		}
	}
}
