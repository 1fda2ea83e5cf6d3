package core

import (
	"fmt"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/bottleneck"
	"gpunoc/internal/microbench"
	"gpunoc/internal/noc"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/workload"
)

// Extension experiments go beyond the paper's figures into its discussion
// sections: the hierarchical-crossbar alternative of Sec. VI-C, the
// covert channel sketched in Sec. V-A, and the series-bottleneck design
// rule of Sec. VI-B.

func init() {
	register(&Experiment{
		ID:    "ext1",
		Title: "Extension: hierarchical crossbar vs 2-D mesh bandwidth fairness",
		Paper: "Sec VI-C: hierarchical crossbars 'do not necessarily have the same limitations' as meshes",
		Run:   runExt1,
	})
	register(&Experiment{
		ID:    "ext2",
		Title: "Extension: L2-slice contention covert channel and access-pattern attack",
		Paper: "Sec V-A: slice placement 'can potentially be exploited' as an output-side covert channel; closing discussion of [51]",
		Run:   runExt2,
	})
	register(&Experiment{
		ID:    "ext3",
		Title: "Extension: series-bottleneck audit of the bandwidth hierarchy",
		Paper: "Sec VI-B: max throughput of K subsystems in series is the minimum subsystem throughput",
		Run:   runExt3,
	})
	register(&Experiment{
		ID:    "ext5",
		Title: "Extension: memory camping vs address hashing on the flit-level NoC",
		Paper: "Sec IV-C: without hashing, 'one memory channel being over-utilized' degrades throughput (memory camping [41])",
		Run:   runExt5,
	})
	register(&Experiment{
		ID:    "ext4",
		Title: "Extension: working-set latency sweep across the L2 capacity",
		Paper: "Methodology: 'the working set fits within the L2' and warm-up guarantees hits - here the regime boundary is measured",
		Run:   runExt4,
	})
}

func runExt1(ctx *Context) ([]Artifact, error) {
	cycles, warmup := 20000, 2000
	if ctx.Quick {
		cycles, warmup = 5000, 1000
	}
	t := &Table{
		Name:    "Extension 1: max/min per-core throughput at identical offered load",
		Columns: []string{"topology", "arbitration", "max/min ratio"},
	}
	for _, arb := range []noc.Arbiter{noc.RoundRobin, noc.AgeBased} {
		mcfg := noc.DefaultFairnessConfig(arb, 42)
		mcfg.Cycles, mcfg.Warmup = cycles, warmup
		mcfg.Obs = ctx.Obs.Scope("mesh-" + arb.String())
		mesh, err := noc.RunFairness(mcfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"6x6 mesh", arb.String(), fmt.Sprintf("%.2f", mesh.MaxMinRatio)})

		xcfg := noc.DefaultXbarFairnessConfig(arb, 42)
		xcfg.Cycles, xcfg.Warmup = cycles, warmup
		xcfg.Obs = ctx.Obs.Scope("xbar-" + arb.String())
		xbar, err := noc.RunXbarFairness(xcfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"hier. crossbar", arb.String(), fmt.Sprintf("%.2f", xbar.MaxMinRatio)})
	}
	return []Artifact{t}, nil
}

func runExt2(ctx *Context) ([]Artifact, error) {
	cfg := ctx.Device.Config()
	gpcs := cfg.GPCs
	trojan := []int{0, gpcs, 2 * gpcs, 3 * gpcs}
	spy := []int{1, gpcs + 1, 2*gpcs + 1, 3*gpcs + 1}
	ch, err := sidechannel.NewCovertChannel(ctx.Engine, 3, trojan, spy)
	if err != nil {
		return nil, err
	}
	margin, err := ch.Calibrate()
	if err != nil {
		return nil, err
	}
	bits := 64
	if ctx.Quick {
		bits = 16
	}
	ber, err := ch.BitErrorRate(bits, 0xfeed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    fmt.Sprintf("Extension 2 (%s): covert channel over L2 slice 3", cfg.Name),
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"signal margin (GB/s)", fmt.Sprintf("%.1f", margin)},
			{"bits transmitted", fmt.Sprint(bits)},
			{"bit error rate", fmt.Sprintf("%.3f", ber)},
		},
	}

	// Access-pattern attack: locate the victim's secret slice.
	secret := cfg.L2Slices / 2
	var victim []bandwidth.Flow
	for _, sm := range trojan {
		victim = append(victim, bandwidth.Flow{SM: sm, Slices: []int{secret}})
	}
	located, err := sidechannel.LocateVictimSlice(ctx.Engine, victim, spy)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"victim's secret slice", fmt.Sprint(secret)},
		[]string{"attacker located slice", fmt.Sprint(located)},
	)
	return []Artifact{t}, nil
}

func runExt3(ctx *Context) ([]Artifact, error) {
	cfg := ctx.Device.Config()
	prof := ctx.Engine.Profile()
	stages, err := bottleneck.Hierarchy(cfg, prof)
	if err != nil {
		return nil, err
	}
	max, _, err := bottleneck.SeriesThroughput(stages)
	if err != nil {
		return nil, err
	}
	reports, err := bottleneck.Analyze(stages, max)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    fmt.Sprintf("Extension 3 (%s): bandwidth hierarchy at saturation", cfg.Name),
		Columns: []string{"stage", "capacity GB/s", "utilization", "bottleneck"},
	}
	for _, r := range reports {
		t.Rows = append(t.Rows, []string{
			r.Stage.Name,
			fmt.Sprintf("%.0f", r.Stage.CapacityGBs),
			fmt.Sprintf("%.0f%%", 100*r.Utilization),
			fmt.Sprint(r.Binding),
		})
	}
	ok, binding, err := bottleneck.MemoryBound(stages)
	if err != nil {
		return nil, err
	}
	verdict := fmt.Sprintf("memory bound: %v (bottleneck: %s) - Implication #5 %s",
		ok, binding.Name, map[bool]string{true: "satisfied", false: "VIOLATED"}[ok])
	return []Artifact{t, &Text{Name: "Extension 3 verdict", Body: verdict}}, nil
}

func runExt4(ctx *Context) ([]Artifact, error) {
	cfg := ctx.Device.Config()
	l2 := cfg.L2SizeMiB << 20
	sizes := []int{l2 / 8, l2 / 4, l2 / 2, 3 * l2 / 4, l2, 3 * l2 / 2, 2 * l2}
	if ctx.Quick {
		sizes = []int{l2 / 8, l2 / 2, 2 * l2}
	}
	pts, err := microbench.WorkingSetSweep(ctx.Device, 0, sizes)
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:   fmt.Sprintf("Extension 4 (%s): pointer-chase latency vs working set (L2 = %d MiB)", cfg.Name, cfg.L2SizeMiB),
		XLabel: "working set (MiB)", YLabel: "cycles",
	}
	t := &Table{
		Name:    "Extension 4: sweep detail",
		Columns: []string{"size (MiB)", "mean cycles", "L2 hit rate"},
	}
	for _, p := range pts {
		mib := float64(p.SizeBytes) / (1 << 20)
		s.X = append(s.X, mib)
		s.Y = append(s.Y, p.MeanCycles)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", mib),
			fmt.Sprintf("%.1f", p.MeanCycles),
			fmt.Sprintf("%.2f", p.L2HitRate),
		})
	}
	return []Artifact{s, t}, nil
}

func runExt5(ctx *Context) ([]Artifact, error) {
	// Replay a BFS trace's transactions through the flit-level mesh under
	// the GPU's hashed address mapping and under a camped (contiguously
	// interleaved) mapping - Sec. IV-C's justification for the hash.
	nodes := 20000
	if ctx.Quick {
		nodes = 6000
	}
	bfs, err := workload.NewBFS(nodes, 6, 3)
	if err != nil {
		return nil, err
	}
	var steps [][]uint64
	for s := 0; s < bfs.Steps(); s++ {
		if addrs := bfs.Step(s); len(addrs) >= 200 && len(addrs) <= 4000 {
			steps = append(steps, addrs)
		}
	}
	if len(steps) > 4 {
		steps = steps[:4]
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("core: BFS trace produced no replayable steps")
	}
	mesh := noc.MeshConfig{Width: 6, Height: 6, BufferFlits: 8, Arbiter: noc.RoundRobin}
	hashed, err := noc.ReplayTrace(noc.ReplayConfig{Mesh: mesh, PortOf: noc.HashedPortMapping(6)}, steps)
	if err != nil {
		return nil, err
	}
	camped, err := noc.ReplayTrace(noc.ReplayConfig{Mesh: mesh, PortOf: noc.CampedPortMapping(6, 1<<22)}, steps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Extension 5: bfs trace replayed through the mesh",
		Columns: []string{"step", "transactions", "hashed makespan", "hashed port CV", "camped makespan", "camped port CV"},
	}
	for s := range steps {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s),
			fmt.Sprint(hashed[s].Transactions),
			fmt.Sprint(hashed[s].Makespan),
			fmt.Sprintf("%.2f", hashed[s].PortCV),
			fmt.Sprint(camped[s].Makespan),
			fmt.Sprintf("%.2f", camped[s].PortCV),
		})
	}
	return []Artifact{t}, nil
}
