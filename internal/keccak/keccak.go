// Package keccak implements the legacy Keccak-256 hash function as used by
// Ethereum (original Keccak padding 0x01, not the NIST SHA3 padding 0x06).
//
// The EVM substrate needs Keccak-256 in three places: 4-byte function
// selectors, the KECCAK256 (SHA3) opcode, and the storage-slot derivation of
// Solidity mappings. The implementation is self-contained because the
// standard library's crypto/sha3 (Go 1.24) implements only the NIST SHA-3
// functions, whose 0x06 padding gives different digests, and has no legacy
// Keccak-256; that lives in golang.org/x/crypto/sha3, an external module
// this dependency-free build does not use.
package keccak

import "encoding/binary"

const rate = 136 // bytes absorbed per permutation for Keccak-256

// Hasher is an incremental Keccak-256 hasher. The zero value is ready to use.
type Hasher struct {
	state [25]uint64
	buf   [rate]byte
	n     int // bytes buffered in buf
}

// Write absorbs p into the sponge. It never returns an error. Whole blocks
// are absorbed straight from p; only a partial block is buffered.
func (h *Hasher) Write(p []byte) (int, error) {
	total := len(p)
	if h.n > 0 {
		k := copy(h.buf[h.n:], p)
		h.n += k
		p = p[k:]
		if h.n < rate {
			return total, nil
		}
		h.absorb(h.buf[:])
	}
	for len(p) >= rate {
		h.absorb(p[:rate])
		p = p[rate:]
	}
	h.n = copy(h.buf[:], p)
	return total, nil
}

// absorb XORs one rate-sized block into the state and permutes it.
func (h *Hasher) absorb(block []byte) {
	block = block[:rate]
	for i := range rate / 8 {
		h.state[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF1600(&h.state)
}

// Sum256 finalizes a copy of the hasher state and returns the 32-byte digest.
// The hasher itself may continue to absorb data afterwards.
func (h *Hasher) Sum256() [32]byte {
	cp := *h
	return cp.finish()
}

// finish pads the buffered tail, absorbs it and squeezes the digest. It
// consumes h.
func (h *Hasher) finish() [32]byte {
	// Legacy Keccak padding: 0x01 ... 0x80 (multi-rate padding with domain 0x01).
	h.buf[h.n] = 0x01
	clear(h.buf[h.n+1:])
	h.buf[rate-1] |= 0x80
	h.absorb(h.buf[:])

	var out [32]byte
	for i := range 4 {
		binary.LittleEndian.PutUint64(out[i*8:], h.state[i])
	}
	return out
}

// Reset returns the hasher to its initial state.
func (h *Hasher) Reset() {
	*h = Hasher{}
}

// Sum256 computes the Keccak-256 digest of data in one shot.
func Sum256(data []byte) [32]byte {
	var h Hasher
	h.Write(data)
	return h.finish()
}

// Selector returns the 4-byte Ethereum function selector for a canonical
// signature such as "transfer(address,uint256)".
func Selector(signature string) [4]byte {
	sum := Sum256([]byte(signature))
	var sel [4]byte
	copy(sel[:], sum[:4])
	return sel
}
