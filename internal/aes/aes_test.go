package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyLengthValidation(t *testing.T) {
	if _, err := NewKey(make([]byte, 15)); err == nil {
		t.Error("short key should fail")
	}
	if _, err := NewKey(make([]byte, 32)); err == nil {
		t.Error("AES-256 key should fail (AES-128 only)")
	}
}

func TestEncryptInputValidation(t *testing.T) {
	k, err := NewKey(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.Encrypt(make([]byte, 15)); err == nil {
		t.Error("short plaintext should fail")
	}
}

// fips197Vectors are the AES-128 known answers of FIPS-197 Appendix B
// (the worked cipher example) and Appendix C.1.
var fips197Vectors = []struct{ key, pt, ct []byte }{
	{
		key: []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c},
		pt:  []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34},
		ct:  []byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32},
	},
	{
		key: []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f},
		pt:  []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
		ct:  []byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a},
	},
}

func TestFIPS197Vector(t *testing.T) {
	for _, v := range fips197Vectors {
		k, err := NewKey(v.key)
		if err != nil {
			t.Fatal(err)
		}
		ct, _, err := k.Encrypt(v.pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, v.ct) {
			t.Fatalf("key %x: ciphertext %x, want %x", v.key, ct, v.ct)
		}
	}
}

// referenceEncrypt is the textbook byte-wise cipher (SubBytes, ShiftRows,
// MixColumns through GF(2^8) multiplies), recording the trace the way its
// definition reads: round r's lookup for output byte j is the state byte
// ShiftRows moves to position j. It is the oracle for EncryptBlock's
// T-table rounds.
func referenceEncrypt(k *Key, pt [BlockSize]byte) ([BlockSize]byte, Trace) {
	var tr Trace
	s := pt
	addRoundKey(&s, k.RoundKey(0))
	for r := 1; r < Rounds; r++ {
		for j := 0; j < BlockSize; j++ {
			tr.RoundIndices[r-1][j] = s[shiftRowsIndex[j]]
		}
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, k.RoundKey(r))
	}
	for j := 0; j < BlockSize; j++ {
		tr.RoundIndices[Rounds-1][j] = s[shiftRowsIndex[j]]
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, k.RoundKey(Rounds))
	return s, tr
}

// shiftRowsIndex maps output byte position to input position for
// ShiftRows (column-major AES state order).
var shiftRowsIndex = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

func addRoundKey(s *[16]byte, k [16]byte) {
	for i := range s {
		s[i] ^= k[i]
	}
}

func subBytes(s *[16]byte) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func shiftRows(s *[16]byte) {
	var t [16]byte
	for j := 0; j < 16; j++ {
		t[j] = s[shiftRowsIndex[j]]
	}
	*s = t
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = mul(a0, 2) ^ mul(a1, 3) ^ a2 ^ a3
		s[4*c+1] = a0 ^ mul(a1, 2) ^ mul(a2, 3) ^ a3
		s[4*c+2] = a0 ^ a1 ^ mul(a2, 2) ^ mul(a3, 3)
		s[4*c+3] = mul(a0, 3) ^ a1 ^ a2 ^ mul(a3, 2)
	}
}

// FuzzEncryptBlock checks EncryptBlock against crypto/aes for the
// ciphertext and against the byte-wise reference for the full trace. Key
// and plaintext are the fuzz inputs zero-padded or truncated to 16 bytes,
// so every input exercises the cipher. The FIPS-197 vectors and 64
// fixed-seed random pairs seed the corpus, which plain `go test` runs;
// `go test -fuzz FuzzEncryptBlock` explores beyond it.
func FuzzEncryptBlock(f *testing.F) {
	for _, v := range fips197Vectors {
		f.Add(v.key, v.pt)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		key, pt := make([]byte, KeySize), make([]byte, BlockSize)
		rng.Read(key)
		rng.Read(pt)
		f.Add(key, pt)
	}
	f.Fuzz(func(t *testing.T, keyIn, ptIn []byte) {
		var key, pt [BlockSize]byte
		copy(key[:], keyIn)
		copy(pt[:], ptIn)
		k, err := NewKey(key[:])
		if err != nil {
			t.Fatal(err)
		}
		std, err := stdaes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [BlockSize]byte
		std.Encrypt(want[:], pt[:])

		var got [BlockSize]byte
		var tr Trace
		k.EncryptBlock(&got, &pt, &tr)
		if got != want {
			t.Fatalf("key %x pt %x: ciphertext %x, crypto/aes %x", key, pt, got, want)
		}
		refCT, refTr := referenceEncrypt(k, pt)
		if refCT != want {
			t.Fatalf("key %x pt %x: reference ciphertext %x, crypto/aes %x", key, pt, refCT, want)
		}
		if tr != refTr {
			t.Fatalf("key %x pt %x: trace differs from the byte-wise reference", key, pt)
		}

		// In place, and without a trace, the ciphertext is the same.
		inPlace := pt
		k.EncryptBlock(&inPlace, &inPlace, nil)
		if inPlace != want {
			t.Fatalf("key %x pt %x: in-place ciphertext %x, want %x", key, pt, inPlace, want)
		}
	})
}

func TestEncryptBlockDoesNotAllocate(t *testing.T) {
	k, err := NewKey(fips197Vectors[0].key)
	if err != nil {
		t.Fatal(err)
	}
	var pt, ct [BlockSize]byte
	var tr Trace
	if n := testing.AllocsPerRun(100, func() { k.EncryptBlock(&ct, &pt, &tr) }); n != 0 {
		t.Errorf("EncryptBlock allocates %.0f times per call, want 0", n)
	}
}

// Property: agrees with the standard library for random keys/plaintexts.
func TestMatchesStdlib(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 16)
		pt := make([]byte, 16)
		rng.Read(key)
		rng.Read(pt)
		k, err := NewKey(key)
		if err != nil {
			return false
		}
		got, _, err := k.Encrypt(pt)
		if err != nil {
			return false
		}
		std, err := stdaes.NewCipher(key)
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		std.Encrypt(want, pt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The attacker's reconstruction identity: the final-round table index for
// ciphertext byte j is InvSBox(C[j] ^ K10[j]). This identity is what makes
// the key-recovery attack possible.
func TestTraceReconstructionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 16)
		pt := make([]byte, 16)
		rng.Read(key)
		rng.Read(pt)
		k, err := NewKey(key)
		if err != nil {
			return false
		}
		ct, tr, err := k.Encrypt(pt)
		if err != nil {
			return false
		}
		k10 := k.LastRoundKey()
		for j := 0; j < BlockSize; j++ {
			if InvSBox(ct[j]^k10[j]) != tr.RoundIndices[Rounds-1][j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSBoxInverse(t *testing.T) {
	for i := 0; i < 256; i++ {
		if InvSBox(sbox[i]) != byte(i) {
			t.Fatalf("InvSBox(sbox[%d]) != %d", i, i)
		}
	}
}

func TestRoundKeysDiffer(t *testing.T) {
	k, err := NewKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if k.RoundKey(0) == k.RoundKey(10) {
		t.Error("round keys should differ")
	}
	if k.LastRoundKey() != k.RoundKey(10) {
		t.Error("LastRoundKey should be round 10")
	}
}
