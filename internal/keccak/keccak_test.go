package keccak

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Known-answer vectors for legacy Keccak-256 (Ethereum flavour).
var kat = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"},
	// Multi-block inputs around the 136-byte rate boundary. These digests were
	// produced by this implementation once the short vectors above (which are
	// the published Ethereum test values) passed; they pin block-boundary
	// behaviour against regressions.
	{strings.Repeat("a", 136), "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e"},
	{strings.Repeat("a", 135), "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446"},
	{strings.Repeat("a", 137), "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39"},
}

func TestSum256Vectors(t *testing.T) {
	for _, tc := range kat {
		got := Sum256([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum256(%q) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

func TestSelector(t *testing.T) {
	// transfer(address,uint256) is the canonical ERC-20 selector 0xa9059cbb.
	sel := Selector("transfer(address,uint256)")
	if got := hex.EncodeToString(sel[:]); got != "a9059cbb" {
		t.Errorf("Selector = %s, want a9059cbb", got)
	}
	sel = Selector("balanceOf(address)")
	if got := hex.EncodeToString(sel[:]); got != "70a08231" {
		t.Errorf("Selector = %s, want 70a08231", got)
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	f := func(data []byte, split uint8) bool {
		var h Hasher
		cut := int(split) % (len(data) + 1)
		h.Write(data[:cut])
		h.Write(data[cut:])
		inc := h.Sum256()
		one := Sum256(data)
		return inc == one
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum256NonDestructive(t *testing.T) {
	var h Hasher
	h.Write([]byte("hello "))
	first := h.Sum256()
	second := h.Sum256()
	if first != second {
		t.Fatal("Sum256 mutated hasher state")
	}
	h.Write([]byte("world"))
	got := h.Sum256()
	want := Sum256([]byte("hello world"))
	if got != want {
		t.Errorf("continued hash = %x, want %x", got, want)
	}
}

func TestReset(t *testing.T) {
	var h Hasher
	h.Write([]byte("junk"))
	h.Reset()
	got := h.Sum256()
	want := Sum256(nil)
	if got != want {
		t.Errorf("after Reset, digest = %x, want empty digest %x", got, want)
	}
}

func TestDistinctInputsDistinctDigests(t *testing.T) {
	seen := make(map[[32]byte][]byte)
	for i := 0; i < 1000; i++ {
		in := bytes.Repeat([]byte{byte(i)}, i%64+1)
		in = append(in, byte(i>>8))
		d := Sum256(in)
		if prev, ok := seen[d]; ok && !bytes.Equal(prev, in) {
			t.Fatalf("collision between %x and %x", prev, in)
		}
		seen[d] = in
	}
}

// referenceF1600 is the textbook table-driven Keccak-f[1600]: theta, rho and
// pi through index tables and variable rotations, chi and iota, one round per
// iteration. It is deliberately slow and obviously correct; keccakF1600 must
// match it on every state.
func referenceF1600(a *[25]uint64) {
	// rotation offsets, indexed [x][y] flattened as x + 5*y.
	rotc := [25]uint{
		0, 1, 62, 28, 27,
		36, 44, 6, 55, 20,
		3, 10, 43, 25, 39,
		41, 45, 15, 21, 8,
		18, 2, 61, 56, 14,
	}
	// pi lane permutation: destination index for each source lane.
	piln := [25]int{
		0, 10, 20, 5, 15,
		16, 1, 11, 21, 6,
		7, 17, 2, 12, 22,
		23, 8, 18, 3, 13,
		14, 24, 9, 19, 4,
	}
	rotl := func(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 25; y += 5 {
				a[x+y] ^= d[x]
			}
		}
		// rho and pi combined
		var b [25]uint64
		for i := 0; i < 25; i++ {
			b[piln[i]] = rotl(a[i], rotc[i])
		}
		// chi
		for y := 0; y < 25; y += 5 {
			for x := 0; x < 5; x++ {
				a[x+y] = b[x+y] ^ (^b[(x+1)%5+y] & b[(x+2)%5+y])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

// referenceSum256 is a one-shot sponge over referenceF1600: pad the whole
// message, then absorb it block by block.
func referenceSum256(data []byte) [32]byte {
	msg := append([]byte(nil), data...)
	msg = append(msg, 0x01)
	for len(msg)%rate != 0 {
		msg = append(msg, 0)
	}
	msg[len(msg)-1] |= 0x80
	var a [25]uint64
	for ; len(msg) > 0; msg = msg[rate:] {
		for i := 0; i < rate/8; i++ {
			a[i] ^= binary.LittleEndian.Uint64(msg[i*8:])
		}
		referenceF1600(&a)
	}
	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
	return out
}

func TestF1600MatchesReference(t *testing.T) {
	f := func(a [25]uint64) bool {
		want := a
		referenceF1600(&want)
		keccakF1600(&a)
		return a == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	var zero [25]uint64
	if !f(zero) {
		t.Error("keccakF1600 differs from the reference on the zero state")
	}
}

// writeChunked feeds data to a fresh hasher in chunks whose sizes rng picks
// (zero-length writes included) and returns the digest.
func writeChunked(data []byte, rng *rand.Rand) [32]byte {
	var h Hasher
	for rest := data; ; {
		k := rng.Intn(min(len(rest), 2*rate) + 1)
		h.Write(rest[:k])
		rest = rest[k:]
		if len(rest) == 0 {
			break
		}
	}
	return h.Sum256()
}

// TestSum256MatchesReferenceSponge covers every length up to three blocks
// plus one byte, so both the direct whole-block path (nothing buffered) and
// the buffered path meet every block boundary, one-shot and chunked.
func TestSum256MatchesReferenceSponge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*rate+1)
	rng.Read(data)
	for n := 0; n <= len(data); n++ {
		in := data[:n]
		want := referenceSum256(in)
		if got := Sum256(in); got != want {
			t.Fatalf("len %d: Sum256 = %x, reference %x", n, got, want)
		}
		for trial := 0; trial < 4; trial++ {
			if got := writeChunked(in, rng); got != want {
				t.Fatalf("len %d trial %d: chunked digest = %x, reference %x", n, trial, got, want)
			}
		}
	}
}

func TestSum256AllocatesNothing(t *testing.T) {
	data := make([]byte, 3*rate+1)
	if n := testing.AllocsPerRun(100, func() { Sum256(data) }); n != 0 {
		t.Errorf("Sum256 allocates %.0f times per call, want 0", n)
	}
}

// FuzzSum256Chunked checks that a chunked Write sequence, the one-shot
// Sum256 and the reference sponge agree on every input and chunking.
func FuzzSum256Chunked(f *testing.F) {
	f.Add([]byte(""), int64(0))
	f.Add([]byte("abc"), int64(1))
	f.Add(bytes.Repeat([]byte{0xa5}, rate), int64(2))
	f.Add(bytes.Repeat([]byte{0x5a}, 2*rate+7), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		want := referenceSum256(data)
		if got := Sum256(data); got != want {
			t.Fatalf("Sum256 = %x, reference %x", got, want)
		}
		if got := writeChunked(data, rand.New(rand.NewSource(seed))); got != want {
			t.Fatalf("chunked digest = %x, reference %x", got, want)
		}
	})
}

func BenchmarkSum256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSum256_1MB(b *testing.B) {
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
