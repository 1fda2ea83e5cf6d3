package core

import (
	"fmt"

	"gpunoc/internal/gpu"
	"gpunoc/internal/microbench"
	"gpunoc/internal/stats"
	"gpunoc/internal/workload"
)

// CheckResult is one of the paper's numbered observations or
// implications evaluated against the model.
type CheckResult struct {
	ID     int
	Text   string
	Pass   bool
	Detail string
}

// CheckObservations evaluates the paper's Observations #1-#12 against a
// V100-class device (plus the partitioned generations where an
// observation is specific to them). It is the repository's end-to-end
// consistency check: if the model drifts away from the paper's findings,
// these fail.
func CheckObservations() ([]CheckResult, error) {
	v100, err := NewContext(gpu.V100(), true)
	if err != nil {
		return nil, err
	}
	a100, err := NewContext(gpu.A100(), true)
	if err != nil {
		return nil, err
	}
	h100, err := NewContext(gpu.H100(), true)
	if err != nil {
		return nil, err
	}

	var out []CheckResult
	add := func(id int, text string, pass bool, detail string) {
		out = append(out, CheckResult{ID: id, Text: text, Pass: pass, Detail: detail})
	}

	// #1: non-uniform latency.
	prof, err := microbench.LatencyProfile(v100.Device, 24, 4)
	if err != nil {
		return nil, err
	}
	sum := stats.Summarize(prof)
	add(1, "SM-to-slice latency is non-uniform",
		sum.Max-sum.Min > 30,
		fmt.Sprintf("SM24 spread %.0f..%.0f cycles", sum.Min, sum.Max))

	// #2: per-GPC averages similar, variation differs.
	var gpcMeans, gpcSigmas []float64
	for g := 0; g < 6; g++ {
		var xs []float64
		for _, sm := range v100.Device.SMsOfGPC(g)[:4] {
			p, err := microbench.LatencyProfile(v100.Device, sm, 2)
			if err != nil {
				return nil, err
			}
			xs = append(xs, p...)
		}
		s := stats.Summarize(xs)
		gpcMeans = append(gpcMeans, s.Mean)
		gpcSigmas = append(gpcSigmas, s.StdDev)
	}
	add(2, "GPC averages similar; within-GPC variation differs",
		stats.Max(gpcMeans)-stats.Min(gpcMeans) < 10 && stats.Max(gpcSigmas) > 1.2*stats.Min(gpcSigmas),
		fmt.Sprintf("mean spread %.1f, sigma %.1f..%.1f", stats.Max(gpcMeans)-stats.Min(gpcMeans), stats.Min(gpcSigmas), stats.Max(gpcSigmas)))

	// #3: placement determines latency; slice order universal.
	dev := v100.Device
	slices := dev.SlicesOfMP(0)
	order0 := orderOf(dev, 0, slices)
	order60 := orderOf(dev, 60, slices)
	same := true
	for i := range order0 {
		if order0[i] != order60[i] {
			same = false
		}
	}
	add(3, "Non-uniform latency determined by physical placement", same,
		fmt.Sprintf("MP0 slice order from SM0 %v == from SM60 %v", order0, order60))

	// #4: Pearson correlation reveals placement.
	p0, err := microbench.LatencyProfile(dev, 0, 4)
	if err != nil {
		return nil, err
	}
	p1, err := microbench.LatencyProfile(dev, 1, 4)
	if err != nil {
		return nil, err
	}
	p4, err := microbench.LatencyProfile(dev, 4, 4)
	if err != nil {
		return nil, err
	}
	rNear := stats.MustPearson(p0, p1)
	rFar := stats.MustPearson(p0, p4)
	add(4, "Latency-profile correlation exposes SM placement",
		rNear > 0.9 && rFar < 0.3,
		fmt.Sprintf("r(GPC0,GPC1)=%.2f r(GPC0,GPC4)=%.2f", rNear, rFar))

	// #5: larger GPUs add hierarchy-driven non-uniformity (H100 CPC).
	hm, err := microbench.SMToSMLatencyMatrix(h100.Device, 0, 4)
	if err != nil {
		return nil, err
	}
	add(5, "H100 CPC hierarchy shapes SM-to-SM latency",
		hm[2][2] > hm[0][0]+10,
		fmt.Sprintf("CPC0-CPC0 %.0f vs CPC2-CPC2 %.0f cycles", hm[0][0], hm[2][2]))

	// #6: partition crossing and L2 policy.
	aLat, err := microbench.GPCToMPLatency(a100.Device, 0, 1, 0)
	if err != nil {
		return nil, err
	}
	hLat, err := microbench.GPCToMPLatency(h100.Device, 0, 1, 0)
	if err != nil {
		return nil, err
	}
	add(6, "Partitions add non-uniformity; H100 local caching restores hit uniformity",
		stats.Max(aLat)-stats.Min(aLat) > 100 && stats.Max(hLat)-stats.Min(hLat) < 60,
		fmt.Sprintf("A100 GPC spread %.0f, H100 %.0f cycles", stats.Max(aLat)-stats.Min(aLat), stats.Max(hLat)-stats.Min(hLat)))

	// #7: aggregate L2 fabric exceeds memory bandwidth.
	fabric, err := microbench.AggregateFabricBandwidth(v100.Engine)
	if err != nil {
		return nil, err
	}
	mem, err := microbench.MemoryBandwidth(v100.Engine)
	if err != nil {
		return nil, err
	}
	add(7, "L2 fabric bandwidth exceeds off-chip bandwidth",
		fabric > 2*mem,
		fmt.Sprintf("fabric %.0f vs memory %.0f GB/s", fabric, mem))

	// #8: bandwidth to slices is uniform despite non-uniform latency.
	var bws []float64
	for sm := 0; sm < 84; sm += 12 {
		for s := 0; s < 32; s += 8 {
			bw, err := microbench.SliceBandwidth(v100.Engine, []int{sm}, s)
			if err != nil {
				return nil, err
			}
			bws = append(bws, bw)
		}
	}
	bsum := stats.Summarize(bws)
	add(8, "Per-slice bandwidth is (mostly) uniform",
		bsum.StdDev/bsum.Mean < 0.1,
		fmt.Sprintf("1SM->slice %.1f GB/s CV %.1f%%", bsum.Mean, 100*bsum.StdDev/bsum.Mean))

	// #9: input speedup exists at every level.
	tpcSpeed, err := microbench.Speedup(v100.Engine, v100.Device.SMsOfTPC(0, 0), false)
	if err != nil {
		return nil, err
	}
	add(9, "Hierarchical input speedup is provisioned",
		tpcSpeed > 1.8,
		fmt.Sprintf("TPC read speedup %.2f", tpcSpeed))

	// #10: newer GPUs have more bandwidth but non-uniform across partitions.
	near, err := microbench.SliceBandwidth(a100.Engine, []int{0}, 0)
	if err != nil {
		return nil, err
	}
	far, err := microbench.SliceBandwidth(a100.Engine, []int{0}, 9)
	if err != nil {
		return nil, err
	}
	add(10, "Partitioned GPUs: more bandwidth, but near/far asymmetry",
		far < 0.8*near,
		fmt.Sprintf("near %.1f vs far %.1f GB/s", near, far))

	// #11: SM load balancing matters more than slice load balancing.
	allSMs := make([]int, 84)
	for i := range allSMs {
		allSMs[i] = i
	}
	contigSM := append(append([]int{}, v100.Device.SMsOfGPC(0)...), v100.Device.SMsOfGPC(1)...)
	mp0 := v100.Device.SlicesOfMP(0)
	cb, err := microbench.SetBandwidth(v100.Engine, contigSM, mp0, false)
	if err != nil {
		return nil, err
	}
	db, err := microbench.SetBandwidth(v100.Engine, allSMs[:28], mp0, false)
	if err != nil {
		return nil, err
	}
	add(11, "SM placement dominates slice placement",
		cb < 0.7*db,
		fmt.Sprintf("28 SMs to MP0: contiguous %.0f vs distributed %.0f GB/s", cb, db))

	// #12: hashed addresses keep NoC traffic balanced.
	gauss, err := workload.NewGaussian(256, 1)
	if err != nil {
		return nil, err
	}
	matrix, err := workload.TrafficMatrix(v100.Device, gauss)
	if err != nil {
		return nil, err
	}
	balance := workload.AnalyzeBalance(matrix, 1000)
	worst := 0.0
	for _, b := range balance {
		if b.Total >= 1000 && b.CV > worst {
			worst = b.CV
		}
	}
	add(12, "Hashing load-balances NoC traffic",
		worst < 0.35,
		fmt.Sprintf("worst substantial-step slice CV %.2f", worst))

	return out, nil
}

func orderOf(dev *gpu.Device, sm int, slices []int) []int {
	lat := make([]float64, len(slices))
	for i, s := range slices {
		lat[i] = float64(dev.L2HitLatencyMean(sm, s))
	}
	return stats.Argsort(lat)
}
