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
	// RoundIndices[Rounds-1][j], the final round's lookup index for
	// ciphertext byte j, is what attackers reconstruct as
	// InvSBox(C[j] ^ K10[j]).
	RoundIndices [Rounds][BlockSize]byte
}

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
// ShiftRows gathers those bytes word-wise: row i of output column c comes
// from column c+i, so t_c takes its top byte from s_c, its second from
// s_{c+1}, and so on.
func (k *Key) EncryptBlock(dst, src *[BlockSize]byte, tr *Trace) {
	rk := &k.rounds
	s0 := binary.BigEndian.Uint32(src[0:]) ^ rk[0][0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ rk[0][1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ rk[0][2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ rk[0][3]
	for r := 1; r < Rounds; r++ {
		t0, t1, t2, t3 := shiftRowWords(s0, s1, s2, s3)
		if tr != nil {
			putWords(&tr.RoundIndices[r-1], t0, t1, t2, t3)
		}
		s0 = te[0][t0>>24] ^ te[1][t0>>16&0xff] ^ te[2][t0>>8&0xff] ^ te[3][t0&0xff] ^ rk[r][0]
		s1 = te[0][t1>>24] ^ te[1][t1>>16&0xff] ^ te[2][t1>>8&0xff] ^ te[3][t1&0xff] ^ rk[r][1]
		s2 = te[0][t2>>24] ^ te[1][t2>>16&0xff] ^ te[2][t2>>8&0xff] ^ te[3][t2&0xff] ^ rk[r][2]
		s3 = te[0][t3>>24] ^ te[1][t3>>16&0xff] ^ te[2][t3>>8&0xff] ^ te[3][t3&0xff] ^ rk[r][3]
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey; its S-box lookups
	// are the attacked table accesses.
	t0, t1, t2, t3 := shiftRowWords(s0, s1, s2, s3)
	if tr != nil {
		putWords(&tr.RoundIndices[Rounds-1], t0, t1, t2, t3)
	}
	binary.BigEndian.PutUint32(dst[0:], subWord(t0)^rk[Rounds][0])
	binary.BigEndian.PutUint32(dst[4:], subWord(t1)^rk[Rounds][1])
	binary.BigEndian.PutUint32(dst[8:], subWord(t2)^rk[Rounds][2])
	binary.BigEndian.PutUint32(dst[12:], subWord(t3)^rk[Rounds][3])
}

// shiftRowWords returns the ShiftRows-ordered state columns: the table
// lookup indices, packed big-endian, of the round that consumes state
// s0..s3.
func shiftRowWords(s0, s1, s2, s3 uint32) (t0, t1, t2, t3 uint32) {
	const r0, r1, r2, r3 = 0xff000000, 0x00ff0000, 0x0000ff00, 0x000000ff
	t0 = s0&r0 | s1&r1 | s2&r2 | s3&r3
	t1 = s1&r0 | s2&r1 | s3&r2 | s0&r3
	t2 = s2&r0 | s3&r1 | s0&r2 | s1&r3
	t3 = s3&r0 | s0&r1 | s1&r2 | s2&r3
	return t0, t1, t2, t3
}

// putWords stores four column words big-endian into b.
func putWords(b *[BlockSize]byte, w0, w1, w2, w3 uint32) {
	binary.BigEndian.PutUint32(b[0:], w0)
	binary.BigEndian.PutUint32(b[4:], w1)
	binary.BigEndian.PutUint32(b[8:], w2)
	binary.BigEndian.PutUint32(b[12:], w3)
}

// subWord applies the S-box to each byte of w.
func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}
