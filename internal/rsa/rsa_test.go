package rsa

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
)

// Property: ModExp agrees with math/big's Exp.
func TestModExpMatchesBig(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := new(big.Int).Rand(rng, big.NewInt(1<<32))
		exp := new(big.Int).Rand(rng, big.NewInt(1<<32))
		mod := new(big.Int).Add(new(big.Int).Rand(rng, big.NewInt(1<<32)), big.NewInt(2))
		got, err := ModExp(base, exp, mod, nil)
		if err != nil {
			return false
		}
		want := new(big.Int).Exp(base, exp, mod)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModExpValidation(t *testing.T) {
	if _, err := ModExp(big.NewInt(2), big.NewInt(3), big.NewInt(0), nil); err == nil {
		t.Error("zero modulus should fail")
	}
	if _, err := ModExp(big.NewInt(2), big.NewInt(-1), big.NewInt(5), nil); err == nil {
		t.Error("negative exponent should fail")
	}
}

// The op sequence is the attack's timing model: one square+reduce per
// bit, one extra multiply+reduce per 1-bit.
func TestModExpOpSequence(t *testing.T) {
	exp := big.NewInt(0b1011) // 4 bits, 3 ones
	var sq, mul, red int
	if _, err := ModExp(big.NewInt(3), exp, big.NewInt(1000003), func(op Op) {
		switch op {
		case OpSquare:
			sq++
		case OpMultiply:
			mul++
		case OpReduce:
			red++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sq != 4 || mul != 3 || red != 7 {
		t.Errorf("ops = %d sq, %d mul, %d red; want 4, 3, 7", sq, mul, red)
	}
	wsq, wmul, wred := OpCounts(exp)
	if wsq != sq || wmul != mul || wred != red {
		t.Errorf("OpCounts = (%d, %d, %d), observed (%d, %d, %d)", wsq, wmul, wred, sq, mul, red)
	}
}

func TestOnesCount(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 1}, {0b1011, 3}, {1 << 40, 1}}
	for _, c := range cases {
		if got := OnesCount(big.NewInt(c.v)); got != c.want {
			t.Errorf("OnesCount(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpSquare.String() != "square" || OpMultiply.String() != "multiply" || OpReduce.String() != "reduce" {
		t.Error("op names")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
}

func newTimer(t *testing.T, sms []int, sync bool) *GPUTimer {
	t.Helper()
	dev := gpu.MustNew(gpu.A100())
	m, err := kernel.NewMachine(dev, kernel.ListScheduler{SMs: sms}, kernel.Options{GridSync: sync})
	if err != nil {
		t.Fatal(err)
	}
	return NewGPUTimer(m)
}

func TestGPUTimerCorrectAndLinearInOnes(t *testing.T) {
	timer := newTimer(t, []int{0, 8}, false)
	mod := big.NewInt(1000003)
	base := big.NewInt(12345)
	timeFor := func(exp *big.Int) float64 {
		got, cycles, err := timer.ModExp(base, exp, mod)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(base, exp, mod)
		if got.Cmp(want) != 0 {
			t.Fatalf("GPU-timed ModExp wrong: %v != %v", got, want)
		}
		return cycles
	}
	// Same bit length, growing ones count -> growing time.
	sparse, _ := new(big.Int).SetString("8000000000000001", 16) // 2 ones
	mid, _ := new(big.Int).SetString("80000f0f0f0f0f01", 16)
	dense, _ := new(big.Int).SetString("ffffffffffffffff", 16) // 64 ones
	ts, tm, td := timeFor(sparse), timeFor(mid), timeFor(dense)
	if !(ts < tm && tm < td) {
		t.Errorf("time should grow with ones: %v %v %v", ts, tm, td)
	}
	// A 1-bit costs roughly twice a 0-bit: doubling ones over the same
	// bit width adds about (multiply+reduce+load) per extra 1.
	perOne := (td - ts) / 62
	if perOne <= 0 {
		t.Errorf("per-one cost %v must be positive", perOne)
	}
}

func TestGPUTimerPartitionSpread(t *testing.T) {
	// Fig. 17(b): the two-SM square kernel slows when its SMs span GPU
	// partitions (sync + far latency), by a noticeable factor.
	exp, _ := new(big.Int).SetString("f0f0f0f0f0f0f0f0", 16)
	mod := big.NewInt(1000033)
	same := newTimer(t, []int{0, 8}, true) // GPC0 twice (partition 0)
	span := newTimer(t, []int{0, 4}, true) // GPC0 + GPC4 (partition 1)
	_, tSame, err := same.ModExp(big.NewInt(7), exp, mod)
	if err != nil {
		t.Fatal(err)
	}
	_, tSpan, err := span.ModExp(big.NewInt(7), exp, mod)
	if err != nil {
		t.Fatal(err)
	}
	if tSpan <= tSame {
		t.Errorf("partition-spanning run %.0f should exceed co-located %.0f", tSpan, tSame)
	}
}

func TestGPUTimerNilMachine(t *testing.T) {
	timer := &GPUTimer{}
	if _, _, err := timer.ModExp(big.NewInt(1), big.NewInt(1), big.NewInt(5)); err == nil {
		t.Error("nil machine should fail")
	}
}
