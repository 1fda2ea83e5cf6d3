// Package gpunoc reproduces "Uncovering Real GPU NoC Characteristics:
// Implications on Interconnect Architecture" (MICRO 2024) as a runnable
// library: a floorplan-driven model of the NVIDIA V100/A100/H100 on-chip
// networks, the paper's latency and bandwidth micro-benchmarks
// (Algorithms 1 and 2), a flit-level mesh NoC simulator, the AES/RSA
// timing side-channel attacks with the random-scheduling defence, and a
// registry of experiments regenerating every table and figure of the
// paper.
//
// This root package is the stable facade; the implementation lives in
// internal packages:
//
//	internal/gpu         device model (hierarchy, floorplan latency, hashing)
//	internal/bandwidth   closed-queueing-network bandwidth engine
//	internal/kernel      warp-granularity kernel runtime and block schedulers
//	internal/microbench  the paper's Algorithms 1 and 2
//	internal/noc         flit-level 2-D mesh simulator and NoC analytics
//	internal/sidechannel AES/RSA attacks, placement reverse engineering
//	internal/core        per-figure experiment registry
//
// Quick start:
//
//	dev, _ := gpunoc.NewDevice("v100")
//	lat, _ := gpunoc.MeasureL2Latency(dev, 24, 7, 100)
//	fmt.Println(lat.Summary) // non-uniform: compare across slices
package gpunoc

import (
	"gpunoc/internal/bandwidth"
	"gpunoc/internal/bottleneck"
	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/microbench"
	"gpunoc/internal/noc"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/units"
)

// Unit-safe quantity types used throughout the public API. Latencies are
// Cycles, bandwidths GBps, and sizes Bytes; convert to bare float64 only
// at measurement boundaries with an explicit float64(...) conversion (the
// noclint unitsafety analyzer flags unit-to-unit conversions).
type (
	// Cycles is a latency or duration in core clock cycles.
	Cycles = units.Cycles
	// GBps is a bandwidth in gigabytes per second.
	GBps = units.GBps
	// Bytes is a data size in bytes.
	Bytes = units.Bytes
)

// Device is a modelled GPU (see internal/gpu.Device for full docs).
type Device = gpu.Device

// Config describes a GPU generation.
type Config = gpu.Config

// Canonical generation configs.
var (
	V100 = gpu.V100
	A100 = gpu.A100
	H100 = gpu.H100
)

// NewDevice returns the device for a generation name ("v100", "a100",
// "h100"): the generation's one process-wide, immutable Device (see
// gpu.New).
func NewDevice(name string) (*Device, error) {
	cfg, err := gpu.ByName(name)
	if err != nil {
		return nil, err
	}
	return gpu.New(cfg)
}

// NewDeviceFromConfig builds a device from an explicit (possibly
// customized) configuration. A configuration equal to a canonical one
// returns that generation's shared Device.
func NewDeviceFromConfig(cfg Config) (*Device, error) { return gpu.New(cfg) }

// CustomSpec describes a speculative GPU generation for design-space
// exploration; see internal/gpu.CustomSpec.
type CustomSpec = gpu.CustomSpec

// CustomDevice builds a device for a speculative generation. The
// bandwidth engine derives a capacity profile from the spec's headline
// numbers following the paper's provisioning rules.
func CustomDevice(spec CustomSpec) (*Device, error) {
	cfg, err := gpu.Custom(spec)
	if err != nil {
		return nil, err
	}
	return gpu.New(cfg)
}

// BandwidthHierarchy returns the series-system stages of a device's
// bandwidth hierarchy for bottleneck auditing (extension ext3).
func BandwidthHierarchy(dev *Device) ([]bottleneck.Stage, error) {
	prof, err := bandwidth.ProfileOrDerive(dev.Config())
	if err != nil {
		return nil, err
	}
	return bottleneck.Hierarchy(dev.Config(), prof)
}

// BottleneckStage is one stage of the bandwidth hierarchy.
type BottleneckStage = bottleneck.Stage

// MemoryBound reports whether DRAM is the hierarchy's series bottleneck
// (Implication #5's design rule) and names the binding stage.
var MemoryBound = bottleneck.MemoryBound

// LatencyResult is a latency measurement summary.
type LatencyResult = microbench.LatencyResult

// MeasureL2Latency runs the paper's Algorithm 1: a single pinned thread
// timing L1-bypassing loads from SM sm to L2 slice slice.
func MeasureL2Latency(dev *Device, sm, slice, iters int) (LatencyResult, error) {
	return microbench.NewBench(nil).MeasureL2Latency(dev, sm, slice, iters)
}

// LatencyProfile returns SM sm's mean latency to every L2 slice.
func LatencyProfile(dev *Device, sm, iters int) ([]float64, error) {
	return microbench.NewBench(nil).LatencyProfile(dev, sm, iters)
}

// CorrelationHeatmap computes the SM-by-SM Pearson matrix of latency
// profiles (the paper's Fig. 6). A nil sms slice covers every SM. The
// profile rows are measured on the deterministic parallel runner
// (internal/parallel) on a pool of GOMAXPROCS goroutines; the result is
// byte-identical to a sequential sweep.
func CorrelationHeatmap(dev *Device, sms []int, iters int) ([][]float64, error) {
	return microbench.NewBench(nil).CorrelationHeatmap(dev, sms, iters)
}

// BandwidthEngine solves steady-state bandwidth allocations.
type BandwidthEngine = bandwidth.Engine

// Flow is one SM streaming to a slice set.
type Flow = bandwidth.Flow

// NewBandwidthEngine builds the engine with the generation's calibrated
// capacity profile.
func NewBandwidthEngine(dev *Device) (*BandwidthEngine, error) {
	return bandwidth.NewEngine(dev)
}

// SliceBandwidth runs the paper's Algorithm 2 for one destination slice.
func SliceBandwidth(eng *BandwidthEngine, sms []int, slice int) (float64, error) {
	return microbench.SliceBandwidth(eng, sms, slice)
}

// AggregateFabricBandwidth measures total L2 fabric bandwidth (Fig. 9a).
func AggregateFabricBandwidth(eng *BandwidthEngine) (float64, error) {
	return microbench.AggregateFabricBandwidth(eng)
}

// MemoryBandwidth measures achievable off-chip bandwidth (Fig. 9a).
func MemoryBandwidth(eng *BandwidthEngine) (float64, error) {
	return microbench.MemoryBandwidth(eng)
}

// Kernel runtime types for writing custom micro-benchmarks.
type (
	// Machine executes kernels on a device under a block scheduler.
	Machine = kernel.Machine
	// Warp is the per-warp kernel context (Clock, SMID, LoadCG...).
	Warp = kernel.Warp
	// Scheduler assigns thread blocks to SMs.
	Scheduler = kernel.Scheduler
	// StaticScheduler is the deterministic production policy.
	StaticScheduler = kernel.StaticScheduler
	// RandomScheduler is the paper's random-seed defence.
	RandomScheduler = kernel.RandomScheduler
)

// NewMachine builds a kernel machine with default runtime options.
func NewMachine(dev *Device, sched Scheduler) (*Machine, error) {
	return kernel.NewMachine(dev, sched, kernel.Options{})
}

// ClusterSMsByLatency reverse-engineers SM placement from timing alone
// (Implication #1).
func ClusterSMsByLatency(dev *Device, sms []int, iters int, threshold float64) ([][]int, error) {
	return sidechannel.ClusterSMsByLatency(dev, sms, iters, threshold)
}

// Mesh simulation façade (Sec. VI).
type (
	// MeshConfig configures the flit-level mesh simulator.
	MeshConfig = noc.MeshConfig
	// FairnessConfig sets up the Fig. 23 arbitration-fairness study.
	FairnessConfig = noc.FairnessConfig
	// GPUSimConfig sets up the Fig. 21 request/reply bottleneck study.
	GPUSimConfig = noc.GPUSimConfig
	// SimPoint is a prior-work NoC configuration for the network-wall
	// analysis (Fig. 22).
	SimPoint = noc.SimPoint
)

// Arbitration policies for the mesh simulator.
const (
	RoundRobin = noc.RoundRobin
	AgeBased   = noc.AgeBased
)

// RunFairness executes the Fig. 23 experiment.
var RunFairness = noc.RunFairness

// RunGPUSim executes the Fig. 21 experiment.
var RunGPUSim = noc.RunGPUSim

// AnalyzeNetworkWall classifies NoC configurations against the paper's
// Fig. 22 network wall.
var AnalyzeNetworkWall = noc.AnalyzeNetworkWall

// Experiment registry: every table and figure of the paper.
type (
	// Experiment reproduces one table or figure.
	Experiment = core.Experiment
	// ExperimentContext carries the device and engine an experiment runs
	// against.
	ExperimentContext = core.Context
	// Artifact is a renderable experiment output.
	Artifact = core.Artifact
)

// Experiments returns the full registry in paper order.
func Experiments() []*Experiment { return core.All() }

// LookupExperiment finds an experiment by ID ("fig1".."fig23", "table1").
func LookupExperiment(id string) (*Experiment, error) { return core.Lookup(id) }

// NewExperimentContext prepares resources for running experiments on a
// generation; quick mode trades statistical depth for speed.
func NewExperimentContext(cfg Config, quick bool) (*ExperimentContext, error) {
	return core.NewContext(cfg, quick)
}

// CheckObservations evaluates the paper's Observations #1-#12 against the
// model.
var CheckObservations = core.CheckObservations

// CheckImplications evaluates the paper's Implications #1-#6 against the
// model.
var CheckImplications = core.CheckImplications

// WorkingSetPoint is one point of a working-set latency sweep.
type WorkingSetPoint = microbench.WorkingSetPoint

// WorkingSetSweep runs the pointer-chase capacity sweep with a real
// set-associative sectored L2 model attached: latency steps up once the
// working set exceeds the L2 (extension ext4).
func WorkingSetSweep(dev *Device, sm int, sizesBytes []int) ([]WorkingSetPoint, error) {
	return microbench.WorkingSetSweep(dev, sm, sizesBytes)
}

// CovertChannel is the L2-slice contention covert channel of extension
// ext2 (paper Sec. V-A).
type CovertChannel = sidechannel.CovertChannel

// NewCovertChannel builds a covert channel between disjoint trojan and
// spy SM sets over one L2 slice.
func NewCovertChannel(eng *BandwidthEngine, slice int, trojanSMs, spySMs []int) (*CovertChannel, error) {
	return sidechannel.NewCovertChannel(eng, slice, trojanSMs, spySMs)
}

// LocateVictimSlice recovers which L2 slice a victim is streaming to by
// probing for bandwidth contention (the [51]-style access-pattern attack).
var LocateVictimSlice = sidechannel.LocateVictimSlice

// Load-latency sweep over the mesh (the classic NoC characterization).
type (
	// LoadLatencyConfig configures the sweep.
	LoadLatencyConfig = noc.LoadLatencyConfig
	// LoadPoint is one (offered, accepted, latency) sample.
	LoadPoint = noc.LoadPoint
)

// RunLoadLatency executes the load-latency sweep.
var RunLoadLatency = noc.RunLoadLatency

// XbarFairnessConfig sets up the hierarchical-crossbar fairness study
// (extension ext1, paper Sec. VI-C).
type XbarFairnessConfig = noc.XbarFairnessConfig

// RunXbarFairness measures per-source throughput on the crossbar.
var RunXbarFairness = noc.RunXbarFairness
