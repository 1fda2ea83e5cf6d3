// Package gpu models the on-chip organization of modern NVIDIA GPUs at the
// granularity the paper characterizes: streaming multiprocessors (SMs)
// grouped into TPCs, (on H100) CPCs, and GPCs; L2 cache slices grouped into
// memory partitions (MPs); and, on A100/H100, two GPU "partitions" joined
// by a central interconnect. Round-trip L2 latency is derived from the
// physical floorplan (package floorplan), reproducing the paper's central
// finding that GPU NoC latency is non-uniform and placement-determined
// while bandwidth is approximately uniform.
package gpu

import (
	"fmt"

	"gpunoc/internal/floorplan"
	"gpunoc/internal/units"
)

// Generation identifies a modelled GPU generation.
type Generation string

// Supported generations.
const (
	GenV100 Generation = "V100"
	GenA100 Generation = "A100"
	GenH100 Generation = "H100"
)

// Calibration holds the latency-model constants for one GPU generation.
// All values are in core clock cycles unless stated otherwise. The defaults
// are calibrated against the paper's reported measurements (see
// EXPERIMENTS.md for the paper-vs-model comparison).
type Calibration struct {
	// BaseRTT is the placement-independent round-trip component: SM LSU
	// pipeline, L2 tag+data access, and fixed NoC serialization.
	BaseRTT units.Cycles

	// WireRTT is the round-trip wire+router delay per floorplan grid unit.
	WireRTT units.CyclesPerGU

	// SliceSpread is the within-MP latency spread: the extra cycles of the
	// farthest slice of an MP relative to its nearest (slices sit at fixed
	// offsets from the MP's NoC port). This component is common to all
	// SMs, which is why the latency-sorted slice order inside an MP is
	// identical from every SM (Fig. 3 / Observation #3).
	SliceSpread units.Cycles

	// MPExtraMax bounds the per-MP pseudo-random port overhead in cycles.
	MPExtraMax units.Cycles

	// SMOffsetTPCStep and SMOffsetOddStep place the SM inside its GPC:
	// each TPC index adds TPCStep cycles and the second SM of a TPC adds
	// OddStep. A pure per-SM constant, so it shifts but never reorders a
	// latency profile (Fig. 5).
	SMOffsetTPCStep units.Cycles
	SMOffsetOddStep units.Cycles

	// NoiseSigma is the per-measurement gaussian noise (clock jitter,
	// replay, arbitration) in cycles.
	NoiseSigma units.Cycles

	// CrossPenaltyRTT is the extra round-trip cost of crossing the GPU
	// partition interconnect for an L2 access (A100; H100 L2 hits never
	// cross because of partition-local caching).
	CrossPenaltyRTT units.Cycles

	// DRAMPenalty is the additional latency of an L2 miss serviced by the
	// local memory controller.
	DRAMPenalty units.Cycles

	// HomeCrossPenalty is the extra miss latency when the line's home DRAM
	// partition differs from the caching partition (H100 only; this is
	// what makes the H100 miss penalty non-constant in Fig. 8f).
	HomeCrossPenalty units.Cycles

	// DSMBase and DSMWire calibrate the H100 SM-to-SM (distributed shared
	// memory) network: latency = DSMBase + DSMWire * (hops via the GPC's
	// SM-to-SM switch) (Fig. 7b). DSMWire is cycles per hop.
	DSMBase units.Cycles
	DSMWire units.Cycles
}

// Config describes one GPU generation: its compute and memory hierarchy
// (the paper's Table I) plus floorplan and latency calibration.
type Config struct {
	Name       Generation
	GPCs       int
	TPCsPerGPC int
	SMsPerTPC  int
	// CPCsPerGPC is 0 when the generation has no CPC level (V100/A100).
	CPCsPerGPC int
	Partitions int
	L2Slices   int
	MPs        int

	// Table-I-style headline numbers.
	MemBWGBs       units.GBps // peak off-chip memory bandwidth
	L2FabricFactor float64    // aggregate L2 fabric BW as a multiple of MemBWGBs
	L2SizeMiB      int
	CoreClockMHz   int

	// CacheLineBytes is the L2 line size used by the address hash.
	CacheLineBytes units.Bytes

	// LocalL2Caching enables H100-style partition-local caching: L2 hits
	// are always served by a slice in the requester's partition.
	LocalL2Caching bool

	Floorplan floorplan.Spec
	Cal       Calibration

	// Seed perturbs all pseudo-random components (noise, hashes) so that
	// distinct Device instances can model distinct boards.
	Seed uint64
}

// SMs returns the total SM count.
func (c Config) SMs() int { return c.GPCs * c.TPCsPerGPC * c.SMsPerTPC }

// SMsPerGPC returns the SM count of one GPC.
func (c Config) SMsPerGPC() int { return c.TPCsPerGPC * c.SMsPerTPC }

// TPCsPerCPC returns the TPC count of one CPC, or 0 when the generation
// has no CPC level.
func (c Config) TPCsPerCPC() int {
	if c.CPCsPerGPC == 0 {
		return 0
	}
	return c.TPCsPerGPC / c.CPCsPerGPC
}

// SlicesPerMP returns the L2 slice count of one memory partition.
func (c Config) SlicesPerMP() int { return c.L2Slices / c.MPs }

// Validate checks the structural consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.GPCs <= 0 || c.TPCsPerGPC <= 0 || c.SMsPerTPC <= 0:
		return fmt.Errorf("gpu: %s: non-positive hierarchy counts", c.Name)
	case c.Partitions <= 0 || c.GPCs%c.Partitions != 0:
		return fmt.Errorf("gpu: %s: %d GPCs not divisible across %d partitions", c.Name, c.GPCs, c.Partitions)
	case c.MPs <= 0 || c.L2Slices%c.MPs != 0:
		return fmt.Errorf("gpu: %s: %d L2 slices not divisible across %d MPs", c.Name, c.L2Slices, c.MPs)
	case c.MPs%c.Partitions != 0:
		return fmt.Errorf("gpu: %s: %d MPs not divisible across %d partitions", c.Name, c.MPs, c.Partitions)
	case c.CPCsPerGPC > 0 && c.TPCsPerGPC%c.CPCsPerGPC != 0:
		return fmt.Errorf("gpu: %s: %d TPCs not divisible across %d CPCs", c.Name, c.TPCsPerGPC, c.CPCsPerGPC)
	case c.CacheLineBytes <= 0 || c.CacheLineBytes&(c.CacheLineBytes-1) != 0:
		return fmt.Errorf("gpu: %s: cache line size %d not a positive power of two", c.Name, c.CacheLineBytes)
	case c.MemBWGBs <= 0 || c.L2FabricFactor <= 0:
		return fmt.Errorf("gpu: %s: non-positive bandwidth parameters", c.Name)
	}
	return nil
}

// V100 returns the modelled Volta configuration: 6 GPCs x 7 TPCs x 2 SMs,
// 32 L2 slices across 8 MPs, a single GPU partition, 900 GB/s HBM2.
func V100() Config {
	return Config{
		Name:           GenV100,
		GPCs:           6,
		TPCsPerGPC:     7,
		SMsPerTPC:      2,
		Partitions:     1,
		L2Slices:       32,
		MPs:            8,
		MemBWGBs:       900,
		L2FabricFactor: 2.4,
		L2SizeMiB:      6,
		CoreClockMHz:   1380,
		CacheLineBytes: 128,
		Floorplan:      floorplan.V100Spec(),
		Cal: Calibration{
			BaseRTT:         158,
			WireRTT:         7,
			SliceSpread:     15,
			MPExtraMax:      6,
			SMOffsetTPCStep: 1.0,
			SMOffsetOddStep: 0.5,
			NoiseSigma:      2,
			DRAMPenalty:     220,
		},
		Seed: 0x5100,
	}
}

// A100 returns the modelled Ampere configuration: 8 GPCs x 8 TPCs x 2 SMs
// split across two GPU partitions, 80 L2 slices across 10 MPs, 1555 GB/s
// HBM2e, and a partition-crossing penalty that yields the paper's ~400
// cycle far-partition L2 latency.
func A100() Config {
	return Config{
		Name:           GenA100,
		GPCs:           8,
		TPCsPerGPC:     8,
		SMsPerTPC:      2,
		Partitions:     2,
		L2Slices:       80,
		MPs:            10,
		MemBWGBs:       1555,
		L2FabricFactor: 3.0,
		L2SizeMiB:      40,
		CoreClockMHz:   1410,
		CacheLineBytes: 128,
		Floorplan:      floorplan.A100Spec(),
		Cal: Calibration{
			BaseRTT:         158,
			WireRTT:         7,
			SliceSpread:     15,
			MPExtraMax:      6,
			SMOffsetTPCStep: 1.0,
			SMOffsetOddStep: 0.5,
			NoiseSigma:      2,
			CrossPenaltyRTT: 75,
			DRAMPenalty:     230,
		},
		Seed: 0xa100,
	}
}

// H100 returns the modelled Hopper configuration: 8 GPCs x 9 TPCs x 2 SMs
// with 3 CPCs per GPC, two GPU partitions with partition-local L2 caching,
// 80 L2 slices across 10 MPs, and 3350 GB/s HBM3.
func H100() Config {
	return Config{
		Name:           GenH100,
		GPCs:           8,
		TPCsPerGPC:     9,
		SMsPerTPC:      2,
		CPCsPerGPC:     3,
		Partitions:     2,
		L2Slices:       80,
		MPs:            10,
		MemBWGBs:       3350,
		L2FabricFactor: 3.5,
		L2SizeMiB:      50,
		CoreClockMHz:   1590,
		CacheLineBytes: 128,
		LocalL2Caching: true,
		Floorplan:      floorplan.H100Spec(),
		Cal: Calibration{
			BaseRTT:          162,
			WireRTT:          7,
			SliceSpread:      15,
			MPExtraMax:       6,
			SMOffsetTPCStep:  1.0,
			SMOffsetOddStep:  0.5,
			NoiseSigma:       2,
			DRAMPenalty:      250,
			HomeCrossPenalty: 170,
			DSMBase:          196,
			DSMWire:          4.25,
		},
		Seed: 0x100,
	}
}

// ByName returns the canonical configuration for a generation name,
// accepting the forms "V100", "v100", etc.
func ByName(name string) (Config, error) {
	switch Generation(normalizeGen(name)) {
	case GenV100:
		return V100(), nil
	case GenA100:
		return A100(), nil
	case GenH100:
		return H100(), nil
	}
	return Config{}, fmt.Errorf("gpu: unknown generation %q (want v100, a100, or h100)", name)
}

func normalizeGen(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// AllConfigs returns the three canonical generation configs in release
// order, for sweeps over generations (Table I, Fig. 6, Fig. 8...).
func AllConfigs() []Config {
	return []Config{V100(), A100(), H100()}
}
