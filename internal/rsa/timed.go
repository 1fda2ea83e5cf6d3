package rsa

import (
	"fmt"
	"math/big"

	"gpunoc/internal/kernel"
)

// GPUTimer executes the square-and-multiply loop on the kernel runtime so
// that its wall time includes the modelled NoC latency of the operand
// table loads each operation performs. This mirrors the CUDA RSA kernels
// of prior work [49], [50]: the square kernel spans two SMs (the machine's
// scheduler decides which), and the per-operation operand fetch is an
// L1-bypassing global load whose latency depends on the executing SM.
type GPUTimer struct {
	// Machine supplies the device, scheduler and sync model.
	Machine *kernel.Machine
	// SquareCycles / MultiplyCycles / ReduceCycles are the fixed ALU
	// costs; the paper's model has a 1-bit costing about twice a 0-bit,
	// which holds when Square+Reduce is about Multiply+Reduce.
	SquareCycles   float64
	MultiplyCycles float64
	ReduceCycles   float64
	// OperandAddrs are the line-aligned global-memory addresses of the
	// operand limb tables fetched by successive operations. Where these
	// lines live decides which SMs are "near" the data: pinning them to
	// one GPU partition reproduces the paper's Fig. 17(b) square-kernel
	// spread (up to ~1.7x) across SM placements.
	OperandAddrs []uint64
}

// NewGPUTimer builds a timer with representative per-op costs. On
// partitioned GPUs the operand lines are placed in partition 0, modelling
// an allocation that landed near one memory partition.
func NewGPUTimer(m *kernel.Machine) *GPUTimer {
	t := &GPUTimer{
		Machine:        m,
		SquareCycles:   120,
		MultiplyCycles: 120,
		ReduceCycles:   80,
	}
	if err := t.PinOperands(0); err != nil {
		// Every canonical device has partition-0 slices; fall back to a
		// fixed region if a custom one does not.
		t.OperandAddrs = []uint64{0x100000, 0x100080, 0x100100, 0x100180}
	}
	return t
}

// PinOperands places the four operand lines on slices of the given GPU
// partition.
func (t *GPUTimer) PinOperands(partition int) error {
	dev := t.Machine.Device()
	slices := dev.SlicesOfPartition(partition)
	if len(slices) == 0 {
		return fmt.Errorf("rsa: partition %d has no slices", partition)
	}
	addrs := make([]uint64, 0, 4)
	for i := 0; len(addrs) < 4 && i < 4; i++ {
		addr, ok := dev.AddressForSlice(slices[i%len(slices)], uint64(0x100000+i*0x10000), 1<<16)
		if !ok {
			return fmt.Errorf("rsa: no address found for slice %d", slices[i%len(slices)])
		}
		addrs = append(addrs, addr)
	}
	t.OperandAddrs = addrs
	return nil
}

// ModExp computes base^exp mod mod while executing the loop's operations
// on the GPU model. It returns the (functionally exact) result and the
// kernel's measured cycles.
func (t *GPUTimer) ModExp(base, exp, mod *big.Int) (*big.Int, float64, error) {
	if t.Machine == nil {
		return nil, 0, fmt.Errorf("rsa: GPUTimer without machine")
	}
	// Record the loop's operation sequence once, then replay it inside
	// each thread block (both SMs execute the full loop in lockstep, as
	// the two-SM square kernel does).
	var ops []Op
	result, err := ModExp(base, exp, mod, func(op Op) { ops = append(ops, op) })
	if err != nil {
		return nil, 0, err
	}
	if len(t.OperandAddrs) == 0 {
		return nil, 0, fmt.Errorf("rsa: GPUTimer without operand addresses")
	}
	res, err := t.Machine.Launch(2, kernel.WarpSize, func(w *kernel.Warp) {
		addrs := make([]uint64, kernel.WarpSize)
		for i, op := range ops {
			// Operand fetch: each lane loads one limb of the operand
			// line; fully coalesced, so latency is the NoC round trip to
			// the line's slice.
			base := t.OperandAddrs[i%len(t.OperandAddrs)]
			for lane := range addrs {
				addrs[lane] = base + uint64(lane)*4
			}
			w.LoadCG(addrs)
			switch op {
			case OpSquare:
				w.Compute(t.SquareCycles)
			case OpMultiply:
				w.Compute(t.MultiplyCycles)
			default:
				w.Compute(t.ReduceCycles)
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return result, res.Cycles, nil
}
