// Package rsa provides RSA's private-key loop, the classic left-to-right
// square-and-multiply modular exponentiation, plus a GPU-timed variant
// that executes the loop on the kernel runtime so its duration reflects
// the modelled NoC. The paper's Sec. V-B.2 attack exploits that the loop
// performs square()+reduce() per exponent bit and an additional
// multiply()+reduce() per 1-bit, making execution time linear in the
// number of 1s - and that the line's slope and intercept shift with the
// SMs the kernel lands on.
//
// Operand sizes here are toy-sized for experiment speed; this package
// must never be used to protect data.
package rsa

import (
	"fmt"
	"math/big"
)

// Op identifies one step of the square-and-multiply loop.
type Op int

// Loop operations.
const (
	OpSquare Op = iota
	OpMultiply
	OpReduce
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSquare:
		return "square"
	case OpMultiply:
		return "multiply"
	case OpReduce:
		return "reduce"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ModExp computes base^exp mod mod with left-to-right square-and-multiply,
// invoking hook (if non-nil) for every operation in loop order. mod must
// be positive; exp non-negative.
func ModExp(base, exp, mod *big.Int, hook func(Op)) (*big.Int, error) {
	if mod == nil || mod.Sign() <= 0 {
		return nil, fmt.Errorf("rsa: non-positive modulus")
	}
	if exp == nil || exp.Sign() < 0 {
		return nil, fmt.Errorf("rsa: negative exponent")
	}
	emit := func(op Op) {
		if hook != nil {
			hook(op)
		}
	}
	result := big.NewInt(1)
	result.Mod(result, mod)
	b := new(big.Int).Mod(base, mod)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		result.Mul(result, result)
		emit(OpSquare)
		result.Mod(result, mod)
		emit(OpReduce)
		if exp.Bit(i) == 1 {
			result.Mul(result, b)
			emit(OpMultiply)
			result.Mod(result, mod)
			emit(OpReduce)
		}
	}
	return result, nil
}

// OnesCount returns the number of 1-bits in the exponent, the quantity
// the timing attack infers.
func OnesCount(e *big.Int) int {
	count := 0
	for _, w := range e.Bits() {
		for ; w != 0; w &= w - 1 {
			count++
		}
	}
	return count
}

// OpCounts returns the number of squares, multiplies and reductions the
// square-and-multiply loop performs for an exponent.
func OpCounts(exp *big.Int) (squares, multiplies, reduces int) {
	bits := exp.BitLen()
	ones := OnesCount(exp)
	return bits, ones, bits + ones
}
