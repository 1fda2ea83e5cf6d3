// Package aes is a from-scratch AES-128 implementation in the T-table
// style GPU AES libraries use, instrumented to expose the table indices
// each encryption touches. GPU timing side channels (Jiang et al. [6],
// reproduced in the paper's Sec. V-B.1) exploit that a warp of 32
// encryptions coalesces its final-round table lookups into a number of
// unique memory sectors that is linearly visible in the kernel's timing.
//
// Each inner round is four 32-bit T-table lookups per column (Te0-Te3,
// built at init from the S-box), indexed by exactly the bytes the Trace
// records, so the instrumented indices are the lookups the code performs.
// The implementation does nothing to hide its own timing and is NOT
// intended for protecting data; it exists to drive the side-channel
// reproduction.
package aes

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Rounds is the number of AES-128 rounds.
const Rounds = 10

// sbox is the AES S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// invSbox is the inverse S-box, computed from sbox at init.
var invSbox [256]byte

// te holds the encryption T-tables: te[i][x] is the MixColumns column
// contributed by S-box output sbox[x] sitting in row i, packed big-endian
// (row 0 in the top byte). te[i] is te[0] rotated right by 8*i bits.
var te [4][256]uint32

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
		w := uint32(mul(v, 2))<<24 | uint32(v)<<16 | uint32(v)<<8 | uint32(mul(v, 3))
		for r := range te {
			te[r][i] = w>>(8*r) | w<<(32-8*r)
		}
	}
}

// SBox returns the S-box value for x (the final-round table lookup).
func SBox(x byte) byte { return sbox[x] }

// InvSBox returns the inverse S-box value, which attackers use to recover
// the final-round table index from a ciphertext byte and a key guess.
func InvSBox(x byte) byte { return invSbox[x] }

// xtime multiplies by x in GF(2^8).
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// mul multiplies a by b in GF(2^8).
func mul(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// rcon are the key-schedule round constants.
var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Key is an expanded AES-128 key schedule.
type Key struct {
	// rounds[r] is the round key for round r (0..10) as four big-endian
	// column words.
	rounds [Rounds + 1][4]uint32
}

// NewKey expands a 16-byte key.
func NewKey(key []byte) (*Key, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key length %d, want %d", len(key), KeySize)
	}
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon.
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/4]
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	k := &Key{}
	for i, word := range w {
		k.rounds[i/4][i%4] = binary.BigEndian.Uint32(word[:])
	}
	return k, nil
}

// RoundKey returns round key r.
func (k *Key) RoundKey(r int) [BlockSize]byte {
	var b [BlockSize]byte
	for c, word := range k.rounds[r] {
		binary.BigEndian.PutUint32(b[4*c:], word)
	}
	return b
}

// LastRoundKey returns the round-10 key, the attack's recovery target.
func (k *Key) LastRoundKey() [BlockSize]byte { return k.RoundKey(Rounds) }

// Trace records the memory-access-relevant indices of one encryption: the
// T-table lookup index of every round's SubBytes stage, in the ShiftRows
// access order of the executing kernel.
type Trace struct {
	// RoundIndices[r][j] is the table index of round r+1's lookup that fed
	// output byte j.
	RoundIndices [Rounds][BlockSize]byte
	// FinalIndices[j] is the final round's lookup index for ciphertext
	// byte j (an alias of RoundIndices[Rounds-1]). Attackers reconstruct
	// it as InvSBox(C[j] ^ K10[j]).
	FinalIndices [BlockSize]byte
}

// shiftRowsIndex maps output byte position to input position for
// ShiftRows (column-major AES state order).
var shiftRowsIndex = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

// Encrypt encrypts one 16-byte block, returning the ciphertext and the
// access trace.
func (k *Key) Encrypt(pt []byte) ([]byte, Trace, error) {
	var tr Trace
	if len(pt) != BlockSize {
		return nil, tr, fmt.Errorf("aes: plaintext length %d, want %d", len(pt), BlockSize)
	}
	ct := make([]byte, BlockSize)
	k.EncryptBlock((*[BlockSize]byte)(ct), (*[BlockSize]byte)(pt), &tr)
	return ct, tr, nil
}

// EncryptBlock encrypts src into dst (which may alias src) and, when tr
// is non-nil, records the access trace into it. It does not allocate.
//
// The state is four big-endian column words. Output column c of an inner
// round XORs four T-table lookups whose indices are the ShiftRows-ordered
// state bytes 4c..4c+3 - exactly the RoundIndices the trace records.
func (k *Key) EncryptBlock(dst, src *[BlockSize]byte, tr *Trace) {
	var s [4]uint32
	for c := range s {
		s[c] = binary.BigEndian.Uint32(src[4*c:]) ^ k.rounds[0][c]
	}
	for r := 1; r < Rounds; r++ {
		idx := roundIndices(&s)
		if tr != nil {
			tr.RoundIndices[r-1] = idx
		}
		for c := range s {
			s[c] = te[0][idx[4*c]] ^ te[1][idx[4*c+1]] ^ te[2][idx[4*c+2]] ^ te[3][idx[4*c+3]] ^ k.rounds[r][c]
		}
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey; its S-box lookups
	// are the attacked table accesses.
	idx := roundIndices(&s)
	if tr != nil {
		tr.RoundIndices[Rounds-1] = idx
		tr.FinalIndices = idx
	}
	for c := range s {
		word := uint32(sbox[idx[4*c]])<<24 | uint32(sbox[idx[4*c+1]])<<16 |
			uint32(sbox[idx[4*c+2]])<<8 | uint32(sbox[idx[4*c+3]])
		binary.BigEndian.PutUint32(dst[4*c:], word^k.rounds[Rounds][c])
	}
}

// roundIndices returns the state bytes in ShiftRows order: the table
// lookup indices of the round that consumes state s.
func roundIndices(s *[4]uint32) [BlockSize]byte {
	var idx [BlockSize]byte
	for c := 0; c < 4; c++ {
		idx[4*c] = byte(s[c] >> 24)
		idx[4*c+1] = byte(s[(c+1)&3] >> 16)
		idx[4*c+2] = byte(s[(c+2)&3] >> 8)
		idx[4*c+3] = byte(s[(c+3)&3])
	}
	return idx
}

// Decrypt inverts Encrypt (equivalent-inverse-cipher free, straightforward
// inverse rounds); provided so tests can verify functional correctness.
func (k *Key) Decrypt(ct []byte) ([]byte, error) {
	if len(ct) != BlockSize {
		return nil, fmt.Errorf("aes: ciphertext length %d, want %d", len(ct), BlockSize)
	}
	var s [16]byte
	copy(s[:], ct)
	addRoundKey(&s, k.RoundKey(Rounds))
	invShiftRows(&s)
	invSubBytes(&s)
	for r := Rounds - 1; r >= 1; r-- {
		addRoundKey(&s, k.RoundKey(r))
		invMixColumns(&s)
		invShiftRows(&s)
		invSubBytes(&s)
	}
	addRoundKey(&s, k.RoundKey(0))
	pt := make([]byte, BlockSize)
	copy(pt, s[:])
	return pt, nil
}

func invSubBytes(s *[16]byte) {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

func invShiftRows(s *[16]byte) {
	var t [16]byte
	for j := 0; j < 16; j++ {
		t[shiftRowsIndex[j]] = s[j]
	}
	*s = t
}

func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = mul(a0, 14) ^ mul(a1, 11) ^ mul(a2, 13) ^ mul(a3, 9)
		s[4*c+1] = mul(a0, 9) ^ mul(a1, 14) ^ mul(a2, 11) ^ mul(a3, 13)
		s[4*c+2] = mul(a0, 13) ^ mul(a1, 9) ^ mul(a2, 14) ^ mul(a3, 11)
		s[4*c+3] = mul(a0, 11) ^ mul(a1, 13) ^ mul(a2, 9) ^ mul(a3, 14)
	}
}

func addRoundKey(s *[16]byte, k [16]byte) {
	for i := range s {
		s[i] ^= k[i]
	}
}
