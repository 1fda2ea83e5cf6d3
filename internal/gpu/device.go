package gpu

import (
	"fmt"
	"math/bits"
	"sync"

	"gpunoc/internal/floorplan"
	"gpunoc/internal/units"
)

// Device is an instantiated GPU model: a validated configuration plus its
// realized floorplan. A Device answers the questions the paper's
// micro-benchmarks put to real silicon: "what is the round-trip latency
// from SM s to L2 slice d?", "which slice does address a map to?",
// "what does a miss cost?".
//
// The latency model is a pure function of the (SM, slice) placement, so
// a canonical Device (see New) holds it as tables filled once from the
// floorplan arithmetic. The arithmetic stays as the reference and
// answers every query outside the tables, and on every other Device.
//
// Device is immutable after New and safe for concurrent use.
type Device struct {
	cfg  Config
	plan *floorplan.Plan

	// sms and lineShift cache cfg.SMs() and log2(cfg.CacheLineBytes).
	sms       int
	lineShift uint
	// homeSalt is the first two rounds of HomeSlice's
	// mix(Seed, 0xadd2, line), which depend only on the seed.
	homeSalt uint64

	// The tables, empty unless filled by fillTables. Entry
	// sm*L2Slices+slice of hitMean and serve is L2HitLatencyMean and
	// ServingSliceID of (sm, slice); entry sm*(L2Slices+MPs)+k of
	// noisePre is the first two rounds of noise's mix(Seed, sm<<20|k,
	// iter), for every noise key k below L2Slices+MPs.
	hitMean  []units.Cycles
	serve    []int32
	noisePre []uint64
}

// canonical holds the one shared Device of each canonical generation,
// built on its first New.
var canonical = [...]struct {
	cfg  Config
	once sync.Once
	dev  *Device
	err  error
}{{cfg: V100()}, {cfg: A100()}, {cfg: H100()}}

// New builds a Device from cfg, validating it and laying out the
// floorplan. A cfg equal to V100(), A100() or H100() returns that
// generation's one process-wide Device, whose latency tables are built
// on the first call; any other cfg builds its own Device, which answers
// from the floorplan arithmetic and so costs no table memory however
// large the design.
func New(cfg Config) (*Device, error) {
	for i := range canonical {
		c := &canonical[i]
		if cfg == c.cfg {
			c.once.Do(func() { c.dev, c.err = newTabled(cfg) })
			return c.dev, c.err
		}
	}
	return newDevice(cfg)
}

// newDevice validates cfg and builds a Device on the arithmetic path.
func newDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := floorplan.Build(cfg.Floorplan)
	if err != nil {
		return nil, fmt.Errorf("gpu: %s floorplan: %w", cfg.Name, err)
	}
	if len(plan.GPCPos) != cfg.GPCs {
		return nil, fmt.Errorf("gpu: %s floorplan has %d GPCs, config has %d", cfg.Name, len(plan.GPCPos), cfg.GPCs)
	}
	if len(plan.MPPos) != cfg.MPs {
		return nil, fmt.Errorf("gpu: %s floorplan has %d MPs, config has %d", cfg.Name, len(plan.MPPos), cfg.MPs)
	}
	if cfg.Floorplan.CPCsPerGPC != cfg.CPCsPerGPC {
		return nil, fmt.Errorf("gpu: %s floorplan has %d CPCs per GPC, config has %d", cfg.Name, cfg.Floorplan.CPCsPerGPC, cfg.CPCsPerGPC)
	}
	if cfg.Floorplan.Partitions != cfg.Partitions {
		return nil, fmt.Errorf("gpu: %s floorplan has %d partitions, config has %d", cfg.Name, cfg.Floorplan.Partitions, cfg.Partitions)
	}
	return &Device{
		cfg:       cfg,
		plan:      plan,
		sms:       cfg.SMs(),
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.CacheLineBytes))),
		homeSalt:  splitmix64(splitmix64(mixInit^cfg.Seed) ^ 0xadd2),
	}, nil
}

// newTabled is newDevice plus the latency tables.
func newTabled(cfg Config) (*Device, error) {
	d, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	d.fillTables()
	return d, nil
}

// fillTables fills the latency tables from the arithmetic reference.
func (d *Device) fillTables() {
	slices, keys := d.cfg.L2Slices, d.cfg.L2Slices+d.cfg.MPs
	d.hitMean = make([]units.Cycles, d.sms*slices)
	d.serve = make([]int32, d.sms*slices)
	d.noisePre = make([]uint64, d.sms*keys)
	seeded := splitmix64(mixInit ^ d.cfg.Seed)
	for sm := 0; sm < d.sms; sm++ {
		for s := 0; s < slices; s++ {
			d.hitMean[sm*slices+s] = d.hitLatencyMean(sm, s)
			d.serve[sm*slices+s] = int32(d.effectiveHitSlice(sm, s))
		}
		for k := 0; k < keys; k++ {
			d.noisePre[sm*keys+k] = splitmix64(seeded ^ (uint64(sm)<<20 | uint64(k)))
		}
	}
}

// MustNew is New but panics on error, for the canonical configurations.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Plan returns the realized floorplan. It is shared by every user of a
// canonical Device and must be treated as read-only.
func (d *Device) Plan() *floorplan.Plan { return d.plan }

// --- Hierarchy enumeration -------------------------------------------------
//
// SMs are enumerated round-robin across GPCs (gpc = sm mod nGPC), matching
// the interleaving implied by the paper's SM-ID groupings: on the 6-GPC
// V100, SM 24 and SM 60 land in GPC0 while SM 28 and SM 64 land in GPC4,
// exactly the pairings of Fig. 3. The SM's local index within its GPC is
// sm / nGPC; consecutive local indices pair into TPCs.

// GPCOf returns the GPC hosting SM sm.
func (d *Device) GPCOf(sm int) int { return sm % d.cfg.GPCs }

// LocalIndex returns sm's index within its GPC (0-based).
func (d *Device) LocalIndex(sm int) int { return sm / d.cfg.GPCs }

// TPCOf returns the (gpc-local) TPC index of SM sm.
func (d *Device) TPCOf(sm int) int { return d.LocalIndex(sm) / d.cfg.SMsPerTPC }

// CPCOf returns the (gpc-local) CPC index of SM sm, or -1 when the
// generation has no CPC level.
func (d *Device) CPCOf(sm int) int {
	if d.cfg.CPCsPerGPC == 0 {
		return -1
	}
	return d.TPCOf(sm) / d.cfg.TPCsPerCPC()
}

// PartitionOfSM returns the GPU partition hosting SM sm.
func (d *Device) PartitionOfSM(sm int) int {
	return d.plan.GPCPartition[d.GPCOf(sm)]
}

// SMsOfGPC returns the SM IDs of GPC gpc in ascending order.
func (d *Device) SMsOfGPC(gpc int) []int {
	sms := make([]int, 0, d.cfg.SMsPerGPC())
	for local := 0; local < d.cfg.SMsPerGPC(); local++ {
		sms = append(sms, local*d.cfg.GPCs+gpc)
	}
	return sms
}

// SMsOfTPC returns the two SM IDs of TPC tpc within GPC gpc.
func (d *Device) SMsOfTPC(gpc, tpc int) []int {
	sms := make([]int, 0, d.cfg.SMsPerTPC)
	for i := 0; i < d.cfg.SMsPerTPC; i++ {
		local := tpc*d.cfg.SMsPerTPC + i
		sms = append(sms, local*d.cfg.GPCs+gpc)
	}
	return sms
}

// SMsOfCPC returns the SM IDs of CPC cpc within GPC gpc, or nil when the
// generation has no CPC level.
func (d *Device) SMsOfCPC(gpc, cpc int) []int {
	if d.cfg.CPCsPerGPC == 0 {
		return nil
	}
	tpcs := d.cfg.TPCsPerCPC()
	sms := make([]int, 0, tpcs*d.cfg.SMsPerTPC)
	for t := 0; t < tpcs; t++ {
		sms = append(sms, d.SMsOfTPC(gpc, cpc*tpcs+t)...)
	}
	return sms
}

// --- L2 slice enumeration ---------------------------------------------------
//
// Profiler slice IDs interleave memory partitions (mp = slice mod nMP),
// which is why raw latency-vs-slice-ID plots look jagged (Fig. 1a) until
// slices are regrouped by MP (Fig. 3).

// MPOfSlice returns the memory partition owning L2 slice s.
func (d *Device) MPOfSlice(s int) int { return s % d.cfg.MPs }

// SliceLocalIndex returns s's index within its memory partition.
func (d *Device) SliceLocalIndex(s int) int { return s / d.cfg.MPs }

// PartitionOfSlice returns the GPU partition hosting L2 slice s.
func (d *Device) PartitionOfSlice(s int) int {
	return d.plan.MPPartition[d.MPOfSlice(s)]
}

// SlicesOfMP returns the slice IDs of memory partition mp ascending.
func (d *Device) SlicesOfMP(mp int) []int {
	slices := make([]int, 0, d.cfg.SlicesPerMP())
	for local := 0; local < d.cfg.SlicesPerMP(); local++ {
		slices = append(slices, local*d.cfg.MPs+mp)
	}
	return slices
}

// SlicesOfPartition returns the slice IDs housed in GPU partition p.
func (d *Device) SlicesOfPartition(p int) []int {
	var slices []int
	for s := 0; s < d.cfg.L2Slices; s++ {
		if d.PartitionOfSlice(s) == p {
			slices = append(slices, s)
		}
	}
	return slices
}

// --- Latency model -----------------------------------------------------------

// smOffset is the fixed intra-GPC wiring offset of SM sm in cycles: a pure
// per-SM constant, so it shifts a latency profile without reordering it.
func (d *Device) smOffset(sm int) units.Cycles {
	local := d.LocalIndex(sm)
	tpc := local / d.cfg.SMsPerTPC
	odd := local % d.cfg.SMsPerTPC
	return d.cfg.Cal.SMOffsetTPCStep.Scale(float64(tpc)) + d.cfg.Cal.SMOffsetOddStep.Scale(float64(odd))
}

// sliceExtra is the fixed offset of slice s from its MP's NoC port. It is
// common to every SM, which forces the identical within-MP latency
// ordering the paper observes from all SMs (Fig. 3, Observation #3).
func (d *Device) sliceExtra(s int) units.Cycles {
	per := d.cfg.SlicesPerMP()
	if per <= 1 {
		return 0
	}
	// Slices are placed at pseudo-random but fixed offsets within the MP
	// so the latency-sorted order is nontrivial yet universal.
	h := mix(d.cfg.Seed, 0x51, uint64(s))
	return d.cfg.Cal.SliceSpread.Scale(unitFloat(h))
}

// mpExtra is the fixed port overhead of memory partition mp.
func (d *Device) mpExtra(mp int) units.Cycles {
	h := mix(d.cfg.Seed, 0x3b, uint64(mp))
	return d.cfg.Cal.MPExtraMax.Scale(unitFloat(h))
}

// noise returns the measurement noise for one (sm, key, iter) sample.
// The key is a slice, L2Slices plus an MP, or (for SM-to-SM loads) an
// SM id, which can exceed the table's key range and then takes mix.
func (d *Device) noise(sm, key int, iter uint64) units.Cycles {
	var h uint64
	if keys := d.cfg.L2Slices + d.cfg.MPs; uint(key) < uint(keys) && uint(sm) < uint(d.sms) && d.noisePre != nil {
		h = splitmix64(d.noisePre[sm*keys+key] ^ iter)
	} else {
		h = mix(d.cfg.Seed, uint64(sm)<<20|uint64(key), iter)
	}
	return d.cfg.Cal.NoiseSigma.Scale(gaussian(h))
}

// pair returns the table index of (sm, slice), or -1 when the tables are
// empty or do not hold the pair.
func (d *Device) pair(sm, slice int) int {
	if uint(slice) >= uint(d.cfg.L2Slices) || uint(sm) >= uint(d.sms) || d.hitMean == nil {
		return -1
	}
	return sm*d.cfg.L2Slices + slice
}

// effectiveHitSlice maps the addressed slice to the slice that actually
// serves an L2 hit. With H100-style partition-local caching, hits are
// served by a slice in the requester's partition at the same local
// position ("L2 caches data for memory accesses from SMs in GPCs directly
// connected to the partition").
func (d *Device) effectiveHitSlice(sm, slice int) int {
	if !d.cfg.LocalL2Caching {
		return slice
	}
	smPart := d.PartitionOfSM(sm)
	if d.PartitionOfSlice(slice) == smPart {
		return slice
	}
	// Mirror the slice into the local partition: same MP-local position,
	// mirrored MP index within the partition.
	mp := d.MPOfSlice(slice)
	mpPerPart := d.cfg.MPs / d.cfg.Partitions
	localMP := mp%mpPerPart + smPart*mpPerPart
	return d.SliceLocalIndex(slice)*d.cfg.MPs + localMP
}

// L2HitLatencyMean returns the noise-free round-trip latency in cycles of
// an L1-bypassing load from SM sm that hits in L2 slice slice. This is the
// quantity Algorithm 1 of the paper estimates by averaging timed loads.
func (d *Device) L2HitLatencyMean(sm, slice int) units.Cycles {
	if i := d.pair(sm, slice); i >= 0 {
		return d.hitMean[i]
	}
	return d.hitLatencyMean(sm, slice)
}

// hitLatencyMean is L2HitLatencyMean's floorplan arithmetic, the
// reference its table is filled from.
func (d *Device) hitLatencyMean(sm, slice int) units.Cycles {
	slice = d.effectiveHitSlice(sm, slice)
	gpc := d.GPCOf(sm)
	mp := d.MPOfSlice(slice)
	cal := &d.cfg.Cal

	lat := cal.BaseRTT + d.smOffset(sm) + d.sliceExtra(slice) + d.mpExtra(mp)
	lat += cal.WireRTT.Times(d.plan.GPCDistanceToMP(gpc, d.CPCOf(sm), mp))
	if d.plan.CrossesPartition(gpc, mp) {
		lat += cal.CrossPenaltyRTT
	}
	return lat
}

// L2HitLatency returns one noisy latency sample, deterministic in
// (device seed, sm, slice, iter).
func (d *Device) L2HitLatency(sm, slice int, iter uint64) units.Cycles {
	return d.L2HitLatencyMean(sm, slice) + d.noise(sm, slice, iter)
}

// L2MissPenaltyMean returns the noise-free additional cycles an L2 miss
// costs over a hit, for a line whose home memory partition is homeMP. On
// V100/A100 the penalty is constant (the MC is colocated with the slice);
// on H100 a line cached in the requester's partition but homed in DRAM of
// the other partition pays HomeCrossPenalty (Fig. 8f).
func (d *Device) L2MissPenaltyMean(sm, homeMP int) units.Cycles {
	pen := d.cfg.Cal.DRAMPenalty
	if d.cfg.LocalL2Caching && d.plan.MPPartition[homeMP] != d.PartitionOfSM(sm) {
		pen += d.cfg.Cal.HomeCrossPenalty
	}
	return pen
}

// L2MissPenalty returns one noisy miss-penalty sample.
func (d *Device) L2MissPenalty(sm, homeMP int, iter uint64) units.Cycles {
	return d.L2MissPenaltyMean(sm, homeMP) + d.noise(sm, homeMP+d.cfg.L2Slices, iter)
}

// SMToSMLatencyMean returns the noise-free latency of a distributed-
// shared-memory load from SM src to the shared memory of SM dst via the
// SM-to-SM network (H100 only; both SMs must be in the same GPC). The
// latency depends on the CPC-to-CPC distance through the GPC's SM-to-SM
// switch, which sits next to CPC0 (Fig. 7).
func (d *Device) SMToSMLatencyMean(src, dst int) (units.Cycles, error) {
	if d.cfg.CPCsPerGPC == 0 {
		return 0, fmt.Errorf("gpu: %s has no SM-to-SM network", d.cfg.Name)
	}
	if d.GPCOf(src) != d.GPCOf(dst) {
		return 0, fmt.Errorf("gpu: SM-to-SM network is per-GPC; SM%d (GPC%d) and SM%d (GPC%d) differ",
			src, d.GPCOf(src), dst, d.GPCOf(dst))
	}
	cal := d.cfg.Cal
	hops := float64(d.CPCOf(src)) + float64(d.CPCOf(dst))
	return cal.DSMBase + cal.DSMWire.Scale(hops), nil
}

// SMToSMLatency returns one noisy SM-to-SM latency sample.
func (d *Device) SMToSMLatency(src, dst int, iter uint64) (units.Cycles, error) {
	mean, err := d.SMToSMLatencyMean(src, dst)
	if err != nil {
		return 0, err
	}
	return mean + d.noise(src, dst, iter^0xd5a), nil
}

// --- Address hashing ----------------------------------------------------------

// HomeSlice returns the L2 slice an address hashes to, before any
// partition-local caching policy. Modern GPUs hash addresses across all
// slices to avoid memory camping (Sec. IV-C); we model this with a mixing
// hash of the line address.
func (d *Device) HomeSlice(addr uint64) int {
	// splitmix64(homeSalt^line) is mix(Seed, 0xadd2, line).
	return int(splitmix64(d.homeSalt^(addr>>d.lineShift)) % uint64(d.cfg.L2Slices))
}

// HomeMP returns the memory partition whose controller owns addr's line.
func (d *Device) HomeMP(addr uint64) int {
	return d.MPOfSlice(d.HomeSlice(addr))
}

// ServingSlice returns the L2 slice that serves a hit on addr for a load
// from SM sm, applying partition-local caching when the generation has it.
func (d *Device) ServingSlice(sm int, addr uint64) int {
	return d.ServingSliceID(sm, d.HomeSlice(addr))
}

// ServingSliceID maps an addressed slice to the slice that actually serves
// hits for SM sm (identity except under H100 partition-local caching).
func (d *Device) ServingSliceID(sm, slice int) int {
	if i := d.pair(sm, slice); i >= 0 {
		return int(d.serve[i])
	}
	return d.effectiveHitSlice(sm, slice)
}

// AddressForSlice searches for an address whose home slice is the given
// slice, scanning line-aligned addresses from start. It mirrors what the
// paper's methodology does with the profiler: build M[s], the set of
// indices of D[] that map to slice s. The boolean is false if none is
// found within limit lines.
func (d *Device) AddressForSlice(slice int, start uint64, limit int) (uint64, bool) {
	lineBytes := uint64(d.cfg.CacheLineBytes)
	addr := start &^ (lineBytes - 1)
	for i := 0; i < limit; i++ {
		if d.HomeSlice(addr) == slice {
			return addr, true
		}
		addr += lineBytes
	}
	return 0, false
}
