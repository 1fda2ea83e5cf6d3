// Package sidechannel reproduces the paper's Section V: GPU timing
// side-channel attacks whose signal rides on memory coalescing and on the
// non-uniform NoC latency, the random thread-block scheduling defence, and
// the NoC-based co-location/placement reverse engineering of
// Implication #1.
package sidechannel

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"gpunoc/internal/aes"
	"gpunoc/internal/kernel"
	"gpunoc/internal/stats"
)

// AESVictim is the attacked encryption service: a GPU kernel that
// encrypts one block per warp lane, its final-round table lookups issued
// as one warp load per byte position. Its wall-clock time therefore grows
// with the number of unique table sectors those lookups coalesce into -
// and shifts with the SM the thread block lands on.
type AESVictim struct {
	machine *kernel.Machine
	key     *aes.Key
	// tableBase is the device address of the final-round table.
	tableBase uint64
	// wordBytes is the per-entry table stride (4-byte T-table words).
	wordBytes uint64
}

// NewAESVictim builds a victim on the given machine with a secret key.
func NewAESVictim(m *kernel.Machine, key []byte) (*AESVictim, error) {
	if m == nil {
		return nil, fmt.Errorf("sidechannel: nil machine")
	}
	k, err := aes.NewKey(key)
	if err != nil {
		return nil, err
	}
	return &AESVictim{machine: m, key: k, tableBase: 0x40000, wordBytes: 4}, nil
}

// Key exposes the victim's key schedule to tests (ground truth).
func (v *AESVictim) Key() *aes.Key { return v.key }

// AESSample is one attacker observation: the warp's 32 ciphertexts and
// the measured kernel time.
type AESSample struct {
	Ciphertexts [kernel.WarpSize][aes.BlockSize]byte
	Cycles      float64
}

// EncryptWarp encrypts 32 plaintexts as one warp and returns the sample
// the attacker sees. The thread block's SM comes from the machine's
// scheduler: static scheduling lands it on the same SM every time, the
// random-seed defence does not.
func (v *AESVictim) EncryptWarp(pts *[kernel.WarpSize][aes.BlockSize]byte) (AESSample, error) {
	var sample AESSample
	var traces [kernel.WarpSize]aes.Trace
	for lane := range pts {
		v.key.EncryptBlock(&sample.Ciphertexts[lane], &pts[lane], &traces[lane])
	}
	var addrs [kernel.WarpSize]uint64
	res, err := v.machine.Launch(1, kernel.WarpSize, func(w *kernel.Warp) {
		// Every round performs 16 warp-wide T-table lookups; the inner
		// rounds contribute plaintext-dependent timing the attacker
		// treats as noise, the final round carries the key-recoverable
		// signal.
		for r := 0; r < aes.Rounds; r++ {
			for j := 0; j < aes.BlockSize; j++ {
				for lane := range addrs {
					addrs[lane] = v.tableBase + uint64(traces[lane].RoundIndices[r][j])*v.wordBytes
				}
				w.LoadCG(addrs[:])
			}
		}
	})
	if err != nil {
		return sample, err
	}
	sample.Cycles = res.Cycles
	return sample, nil
}

// CollectAESSamples gathers n observations with random plaintexts.
func CollectAESSamples(v *AESVictim, n int, rng *rand.Rand) ([]AESSample, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sidechannel: need positive sample count")
	}
	samples := make([]AESSample, 0, n)
	var pts [kernel.WarpSize][aes.BlockSize]byte
	for i := 0; i < n; i++ {
		for lane := range pts {
			rng.Read(pts[lane][:])
		}
		s, err := v.EncryptWarp(&pts)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// AESGuessResult holds the attack's correlation series for one key byte:
// the Fig. 18 plot.
type AESGuessResult struct {
	// Correlations[g] is the Pearson correlation between measured timing
	// and the unique-sector count predicted under guess g.
	Correlations [256]float64
	// Best is the argmax guess.
	Best byte
	// Margin is the gap between the best and second-best correlation in
	// standard-error units of sqrt(n); higher means a more confident
	// recovery.
	Margin float64
}

// RecoverAESKeyByte attacks last-round key byte j: for every guess it
// predicts, per sample, how many unique table sectors the final-round
// lookups of byte j coalesced into (InvSBox(C[j]^guess) names the index),
// then correlates the prediction with the measured timing. The correct
// guess reconstructs the true indices and peaks.
func RecoverAESKeyByte(samples []AESSample, j int, sectorBytes int) (AESGuessResult, error) {
	var res AESGuessResult
	if len(samples) < 8 {
		return res, fmt.Errorf("sidechannel: %d samples are too few", len(samples))
	}
	if j < 0 || j >= aes.BlockSize {
		return res, fmt.Errorf("sidechannel: key byte index %d out of range", j)
	}
	if sectorBytes <= 0 {
		return res, fmt.Errorf("sidechannel: sector size must be positive")
	}
	// A 256-entry table of 4-byte words spans at most 64 sectors, so a
	// 64-bit occupancy mask counts unique sectors exactly.
	const wordBytes = 4
	entriesPerSector := sectorBytes / wordBytes
	if entriesPerSector <= 0 || 256/entriesPerSector > 64 {
		return res, fmt.Errorf("sidechannel: sector size %d unsupported", sectorBytes)
	}
	// sectorOf[x] is the sector bit of the table entry InvSBox(x) names;
	// under guess g, ciphertext byte c looked up entry InvSBox(c^g).
	var sectorOf [256]uint64
	for x := range sectorOf {
		sectorOf[x] = 1 << (int(aes.InvSBox(byte(x))) / entriesPerSector)
	}
	times := make([]float64, len(samples))
	// cts holds byte j of every lane's ciphertext, sample-major, so each
	// guess streams one contiguous array.
	cts := make([]byte, 0, len(samples)*kernel.WarpSize)
	for i := range samples {
		times[i] = samples[i].Cycles
		for lane := range samples[i].Ciphertexts {
			cts = append(cts, samples[i].Ciphertexts[lane][j])
		}
	}
	predicted := make([]float64, len(samples))
	for g := 0; g < 256; g++ {
		for i := range predicted {
			var mask uint64
			for _, c := range cts[i*kernel.WarpSize : (i+1)*kernel.WarpSize] {
				mask |= sectorOf[c^byte(g)]
			}
			predicted[i] = float64(bits.OnesCount64(mask))
		}
		r, err := stats.Pearson(predicted, times)
		if errors.Is(err, stats.ErrZeroVariance) {
			// A constant prediction (or flat timing) carries no signal
			// for this guess; score it as uncorrelated rather than
			// failing the whole key byte.
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

// RecoverAESKey attacks the first nBytes of the last-round key.
func RecoverAESKey(samples []AESSample, nBytes, sectorBytes int) ([]byte, []AESGuessResult, error) {
	if nBytes <= 0 || nBytes > aes.BlockSize {
		return nil, nil, fmt.Errorf("sidechannel: nBytes %d out of range", nBytes)
	}
	key := make([]byte, nBytes)
	results := make([]AESGuessResult, nBytes)
	for j := 0; j < nBytes; j++ {
		r, err := RecoverAESKeyByte(samples, j, sectorBytes)
		if err != nil {
			return nil, nil, err
		}
		key[j] = r.Best
		results[j] = r
	}
	return key, results, nil
}
