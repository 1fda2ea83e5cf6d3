package sidechannel

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gpunoc/internal/aes"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/stats"
)

var testKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

func victim(t *testing.T, sched kernel.Scheduler) *AESVictim {
	t.Helper()
	m, err := kernel.NewMachine(gpu.MustNew(gpu.V100()), sched, kernel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewAESVictim(m, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewAESVictimValidation(t *testing.T) {
	if _, err := NewAESVictim(nil, testKey); err == nil {
		t.Error("nil machine should fail")
	}
	m, err := kernel.NewMachine(gpu.MustNew(gpu.V100()), nil, kernel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAESVictim(m, []byte("short")); err == nil {
		t.Error("bad key should fail")
	}
}

func TestEncryptWarpProducesValidCiphertexts(t *testing.T) {
	v := victim(t, nil)
	var pts [kernel.WarpSize][aes.BlockSize]byte
	for lane := range pts {
		pts[lane][0] = byte(lane)
	}
	s, err := v.EncryptWarp(&pts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles <= 0 {
		t.Error("sample needs positive timing")
	}
	// Functional check: ciphertexts decrypt back to the plaintexts.
	for lane, ct := range s.Ciphertexts {
		back, err := v.Key().Decrypt(ct[:])
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != byte(lane) {
			t.Fatalf("lane %d round trip failed", lane)
		}
	}
}

func TestCollectAESSamplesValidation(t *testing.T) {
	v := victim(t, nil)
	if _, err := CollectAESSamples(v, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero samples should fail")
	}
}

func TestRecoverAESKeyByteValidation(t *testing.T) {
	v := victim(t, nil)
	samples, err := CollectAESSamples(v, 16, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverAESKeyByte(samples[:4], 0, 32); err == nil {
		t.Error("too few samples should fail")
	}
	if _, err := RecoverAESKeyByte(samples, 16, 32); err == nil {
		t.Error("bad byte index should fail")
	}
	if _, err := RecoverAESKeyByte(samples, 0, 0); err == nil {
		t.Error("bad sector size should fail")
	}
	if _, err := RecoverAESKeyByte(samples, 0, 1); err == nil {
		t.Error("sub-word sectors should fail")
	}
	if _, _, err := RecoverAESKey(samples, 0, 32); err == nil {
		t.Error("zero bytes should fail")
	}
	if _, _, err := RecoverAESKey(samples, 17, 32); err == nil {
		t.Error("too many bytes should fail")
	}
}

// Fig. 18(a): under static thread-block scheduling the correlation attack
// recovers the last-round key bytes - the correct guess's correlation
// peaks clearly above the wrong guesses. Fig. 18(b): random(-seed)
// scheduling injects SM-placement timing noise that flattens the
// correlation landscape and defeats the recovery. This is the paper's
// Implication #3 end to end.
func TestAESAttackStaticVsRandomScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack needs thousands of samples")
	}
	const (
		nBytes  = 4
		samples = 15000
	)
	// Static scheduling: attack succeeds on every byte.
	vs := victim(t, kernel.StaticScheduler{})
	staticSamples, err := CollectAESSamples(vs, samples, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	truth := vs.Key().LastRoundKey()
	recovered, results, err := RecoverAESKey(staticSamples, nBytes, 32)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nBytes; j++ {
		if recovered[j] != truth[j] {
			t.Errorf("static scheduling: byte %d recovered %02x, truth %02x", j, recovered[j], truth[j])
		}
		if results[j].Margin <= 0 {
			t.Errorf("static scheduling: byte %d margin %.4f not positive", j, results[j].Margin)
		}
	}

	// Random-seed scheduling: same attacker, same budget, recovery fails.
	schedRng := rand.New(rand.NewSource(9))
	vr := victim(t, kernel.RandomScheduler{Rand: schedRng.Uint64})
	randomSamples, err := CollectAESSamples(vr, samples, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for j := 0; j < nBytes; j++ {
		r, err := RecoverAESKeyByte(randomSamples, j, 32)
		if err != nil {
			t.Fatal(err)
		}
		if r.Best == truth[j] {
			hits++
		}
	}
	if hits > 1 {
		t.Errorf("random scheduling: attack still recovered %d/%d bytes; defence failed", hits, nBytes)
	}
}

// The correct guess's correlation must exceed the bulk of wrong guesses
// even at a modest sample budget (a cheaper smoke version of Fig. 18a).
func TestAESCorrectGuessCorrelationRank(t *testing.T) {
	v := victim(t, kernel.StaticScheduler{})
	samples, err := CollectAESSamples(v, 3000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	truth := v.Key().LastRoundKey()
	r, err := RecoverAESKeyByte(samples, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	rank := 0
	for g := 0; g < 256; g++ {
		if r.Correlations[g] > r.Correlations[truth[0]] {
			rank++
		}
	}
	if rank > 12 {
		t.Errorf("correct guess ranked %d of 256; signal too weak", rank+1)
	}
}

// referenceRecoverAESKeyByte is the straightforward attack: for every
// guess and sample, map each lane's ciphertext byte through InvSBox and
// count the distinct sectors with a set. It is the oracle for the hoisted
// RecoverAESKeyByte (validation omitted).
func referenceRecoverAESKeyByte(samples []AESSample, j, sectorBytes int) (AESGuessResult, error) {
	var res AESGuessResult
	entriesPerSector := sectorBytes / 4
	times := make([]float64, len(samples))
	for i, s := range samples {
		times[i] = s.Cycles
	}
	predicted := make([]float64, len(samples))
	for g := 0; g < 256; g++ {
		for i, s := range samples {
			sectors := map[int]bool{}
			for lane := 0; lane < kernel.WarpSize; lane++ {
				idx := aes.InvSBox(s.Ciphertexts[lane][j] ^ byte(g))
				sectors[int(idx)/entriesPerSector] = true
			}
			predicted[i] = float64(len(sectors))
		}
		r, err := stats.Pearson(predicted, times)
		if errors.Is(err, stats.ErrZeroVariance) {
			r = 0
		} else if err != nil {
			return res, err
		}
		res.Correlations[g] = r
	}
	best, second := 0, -1.0
	for g, r := range res.Correlations {
		if r > res.Correlations[best] {
			best = g
		}
	}
	for g, r := range res.Correlations {
		if g != best && r > second {
			second = r
		}
	}
	res.Best = byte(best)
	res.Margin = res.Correlations[best] - second
	return res, nil
}

// The hoisted attack (sector table, contiguous byte column, hardware
// popcount) returns bit-identical correlations, best guess and margin to
// the per-lane reference, for every supported sector granularity and on
// samples from both schedulers.
func TestRecoverAESKeyByteMatchesReference(t *testing.T) {
	scheds := map[string]kernel.Scheduler{
		"static": kernel.StaticScheduler{},
		"random": kernel.RandomScheduler{Rand: rand.New(rand.NewSource(9)).Uint64},
	}
	for name, sched := range scheds {
		samples, err := CollectAESSamples(victim(t, sched), 300, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		for _, sectorBytes := range []int{16, 32, 128} {
			for _, j := range []int{0, 7, 15} {
				got, err := RecoverAESKeyByte(samples, j, sectorBytes)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRecoverAESKeyByte(samples, j, sectorBytes)
				if err != nil {
					t.Fatal(err)
				}
				for g := range want.Correlations {
					if math.Float64bits(got.Correlations[g]) != math.Float64bits(want.Correlations[g]) {
						t.Fatalf("%s, %dB sectors, byte %d, guess %02x: correlation %v, reference %v",
							name, sectorBytes, j, g, got.Correlations[g], want.Correlations[g])
					}
				}
				if got.Best != want.Best || math.Float64bits(got.Margin) != math.Float64bits(want.Margin) {
					t.Fatalf("%s, %dB sectors, byte %d: best %02x margin %v, reference %02x %v",
						name, sectorBytes, j, got.Best, got.Margin, want.Best, want.Margin)
				}
			}
		}
	}
}
