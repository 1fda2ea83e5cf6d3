package core

import (
	"fmt"

	"gpunoc/internal/bandwidth"
	"gpunoc/internal/gpu"
	"gpunoc/internal/microbench"
	"gpunoc/internal/parallel"
	"gpunoc/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "fig9",
		Title: "Fig 9: Aggregate fabric vs memory BW; per-slice BW distributions",
		Paper: "L2 fabric 2.4-3.5x memory BW; 1 SM->slice ~34 GB/s (V100); GPC->slice ~85 GB/s; >=4 SMs saturate a slice",
		Run:   runFig9,
	})
	register(&Experiment{
		ID:    "fig10",
		Title: "Fig 10: Interconnect input speedups (TPC, GPCl, GPCg, CPC; R/W)",
		Paper: "TPC reads 2x everywhere; V100 TPC writes 1.09x; H100 GPCl ~8 of 9; CPC writes ~4.6x",
		Run:   runFig10,
	})
	register(&Experiment{
		ID:    "fig11",
		Title: "Fig 11: Bandwidth-hierarchy block diagram (link capacities)",
		Paper: "Speedup stages between SM, TPC, GPC, NoC, MP, L2",
		Run:   runFig11,
	})
	register(&Experiment{
		ID:    "fig12",
		Title: "Fig 12: Per-slice bandwidth from SMs on each partition (A100)",
		Paper: "Near ~39.5 GB/s, far ~26 GB/s, swapped across partitions",
		GPUs:  []gpu.Generation{gpu.GenA100},
		Run:   runFig12,
	})
	register(&Experiment{
		ID:    "fig13",
		Title: "Fig 13: Slice-bandwidth distribution over SMs",
		Paper: "A100 bimodal, H100 unimodal (partition-local caching)",
		GPUs:  []gpu.Generation{gpu.GenA100, gpu.GenH100},
		Run:   runFig13,
	})
	register(&Experiment{
		ID:    "fig14",
		Title: "Fig 14: Slice bandwidth vs number of SMs (near vs far)",
		Paper: "A100 saturates at ~8 SMs; far up to ~28% lower at 1-2 SMs (Little's law)",
		GPUs:  []gpu.Generation{gpu.GenA100},
		Run:   runFig14,
	})
	register(&Experiment{
		ID:    "fig15",
		Title: "Fig 15: Contiguous vs distributed MP and SM placements (V100)",
		Paper: "MP placement: minimal difference. SM placement: -62% contiguous; +218% widening 1->4 MPs",
		GPUs:  []gpu.Generation{gpu.GenV100},
		Run:   runFig15,
	})
}

func runFig9(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	fabric, err := microbench.AggregateFabricBandwidth(ctx.Engine)
	if err != nil {
		return nil, err
	}
	mem, err := microbench.MemoryBandwidth(ctx.Engine)
	if err != nil {
		return nil, err
	}
	ta := &Table{
		Name:    fmt.Sprintf("Fig 9(a) (%s): aggregate bandwidth", cfg.Name),
		Columns: []string{"metric", "GB/s", "vs peak mem"},
		Rows: [][]string{
			{"L2 fabric (all hits)", fmt.Sprintf("%.0f", fabric), fmt.Sprintf("%.2fx", fabric/float64(cfg.MemBWGBs))},
			{"memory (all misses)", fmt.Sprintf("%.0f", mem), fmt.Sprintf("%.0f%%", 100*mem/float64(cfg.MemBWGBs))},
		},
	}

	// (b) single SM -> single slice distribution. The (SM, slice) pair
	// list is fixed up front and sharded across the pool; slot order
	// keeps the histogram identical to the sequential sweep.
	step := 6
	if ctx.Quick {
		step = 12
	}
	type pair struct{ sm, s int }
	var pairs []pair
	for sm := 0; sm < cfg.SMs(); sm += step {
		for s := 0; s < cfg.L2Slices; s += 4 {
			pairs = append(pairs, pair{sm: sm, s: s})
		}
	}
	single, err := parallel.Map(len(pairs), func(i int) (float64, error) {
		return microbench.SliceBandwidth(ctx.Engine, []int{pairs[i].sm}, pairs[i].s)
	})
	if err != nil {
		return nil, err
	}
	sumB := stats.Summarize(single)
	hb := &Text{
		Name: fmt.Sprintf("Fig 9(b): 1 SM -> 1 slice bandwidth (mu=%.1f GB/s sigma=%.2f)", sumB.Mean, sumB.StdDev),
		Body: stats.HistogramOf(single, 16).Render(40),
	}

	// (c) whole GPC -> single slice, one task per GPC.
	gpcBW, err := parallel.Map(cfg.GPCs, func(g int) (float64, error) {
		return microbench.SliceBandwidth(ctx.Engine, dev.SMsOfGPC(g), 5)
	})
	if err != nil {
		return nil, err
	}
	sumC := stats.Summarize(gpcBW)
	hc := &Text{
		Name: fmt.Sprintf("Fig 9(c): GPC -> 1 slice bandwidth (mu=%.1f GB/s sigma=%.2f)", sumC.Mean, sumC.StdDev),
		Body: stats.HistogramOf(gpcBW, 8).Render(40),
	}
	return []Artifact{ta, hb, hc}, nil
}

func runFig10(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	t := &Table{
		Name:    fmt.Sprintf("Fig 10 (%s): input speedups", cfg.Name),
		Columns: []string{"stage", "SMs", "read speedup", "write speedup", "full"},
	}
	add := func(stage string, sms []int) error {
		r, err := microbench.Speedup(ctx.Engine, sms, false)
		if err != nil {
			return err
		}
		w, err := microbench.Speedup(ctx.Engine, sms, true)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			stage, fmt.Sprint(len(sms)),
			fmt.Sprintf("%.2f", r), fmt.Sprintf("%.2f", w),
			fmt.Sprint(len(sms)),
		})
		return nil
	}
	if err := add("TPC", dev.SMsOfTPC(0, 0)); err != nil {
		return nil, err
	}
	if cfg.CPCsPerGPC > 0 {
		if err := add("CPC", dev.SMsOfCPC(0, 0)); err != nil {
			return nil, err
		}
	}
	var local []int
	for tpc := 0; tpc < cfg.TPCsPerGPC; tpc++ {
		local = append(local, dev.SMsOfTPC(0, tpc)[0])
	}
	if err := add("GPC_l (1 SM/TPC)", local); err != nil {
		return nil, err
	}
	if err := add("GPC_g (all SMs)", dev.SMsOfGPC(0)); err != nil {
		return nil, err
	}
	return []Artifact{t}, nil
}

func runFig11(ctx *Context) ([]Artifact, error) {
	p := ctx.Engine.Profile()
	cfg := ctx.Device.Config()
	body := fmt.Sprintf(`            %s bandwidth hierarchy (GB/s per link)

  SM  --%.0f(r)/%.0f(w)-->  TPC  --%.0f(r)/%.0f(w)-->  [CPC %.0f(r)/%.0f(w)]
      --slot bus %.0f(r)/%.0f(w)-->  GPC trunk %.0f
      --per-MP spatial port %.0f-->  [partition link %.0f]
      --MP input port %.0f-->  L2 slice %.0f  --mem channel %.0f--> DRAM

  MLP: %d lines/SM (%d per slice target)`,
		cfg.Name,
		p.SMReadGBs, p.SMWriteGBs, p.TPCReadGBs, p.TPCWriteGBs, p.CPCReadGBs, p.CPCWriteGBs,
		p.SlotBusGBs, p.SlotBusWriteGBs, p.GPCTrunkGBs,
		p.GPCMPPortGBs, p.PartitionLinkGBs,
		p.MPPortGBs, p.SliceGBs, p.MemChannelGBs,
		p.MLPLines, p.MLPPerSliceLines)
	return []Artifact{&Text{Name: "Fig 11: interconnect speedup stages", Body: body}}, nil
}

func runFig12(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	// Two SMs on opposite partitions, per-slice bandwidth across all
	// slices. SM0 is in GPC0 (partition 0), SM4 in GPC4 (partition 1).
	ms := &MultiSeries{
		Name:   "Fig 12: per-slice bandwidth from SMs on opposite partitions",
		XLabel: "L2 slice", YLabel: "GB/s",
	}
	step := 1
	if ctx.Quick {
		step = 8
	}
	var slices []int
	for s := 0; s < cfg.L2Slices; s += step {
		ms.X = append(ms.X, float64(s))
		slices = append(slices, s)
	}
	for _, sm := range []int{0, cfg.GPCs / 2} {
		y, err := microbench.PerSliceBandwidth(ctx.Engine, sm, slices)
		if err != nil {
			return nil, err
		}
		ms.Lines = append(ms.Lines, NamedLine{
			Label: fmt.Sprintf("SM%d(part%d)", sm, dev.PartitionOfSM(sm)), Y: y,
		})
	}
	return []Artifact{ms}, nil
}

func runFig13(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	step := 2
	if ctx.Quick {
		step = 8
	}
	var sms []int
	for sm := 0; sm < cfg.SMs(); sm += step {
		sms = append(sms, sm)
	}
	xs, err := microbench.PerSMSliceBandwidth(ctx.Engine, sms, 0)
	if err != nil {
		return nil, err
	}
	h := stats.HistogramOf(xs, 20)
	peaks := h.Peaks(0.3)
	_ = dev
	return []Artifact{&Text{
		Name: fmt.Sprintf("Fig 13 (%s): slice-0 bandwidth over SMs (%d peak(s))", cfg.Name, len(peaks)),
		Body: h.Render(40),
	}}, nil
}

func runFig14(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	sms := dev.SMsOfGPC(0)
	maxN := 14
	if ctx.Quick {
		maxN = 10
	}
	ms := &MultiSeries{
		Name:   "Fig 14: slice bandwidth vs SM count, near vs far partition",
		XLabel: "SMs", YLabel: "GB/s",
	}
	nearSlice, farSlice := 0, dev.Config().MPs-1 // MP0 vs the last MP (other partition)
	for n := 1; n <= maxN; n++ {
		ms.X = append(ms.X, float64(n))
	}
	// One task per SM-count point; each point solves its near and far
	// flows together so the pair stays adjacent in the cache.
	type point struct{ near, far float64 }
	pts, err := parallel.Map(maxN, func(i int) (point, error) {
		n := i + 1
		bwN, err := microbench.SliceBandwidth(ctx.Engine, sms[:n], nearSlice)
		if err != nil {
			return point{}, err
		}
		bwF, err := microbench.SliceBandwidth(ctx.Engine, sms[:n], farSlice)
		if err != nil {
			return point{}, err
		}
		return point{near: bwN, far: bwF}, nil
	})
	if err != nil {
		return nil, err
	}
	near := make([]float64, maxN)
	far := make([]float64, maxN)
	for i, p := range pts {
		near[i] = p.near
		far[i] = p.far
	}
	ms.Lines = []NamedLine{{Label: "near", Y: near}, {Label: "far", Y: far}}
	return []Artifact{ms}, nil
}

func runFig15(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	eng := ctx.Engine

	run := func(sms []int, slices []int) (float64, error) {
		flows := make([]bandwidth.Flow, len(sms))
		for i, sm := range sms {
			flows[i] = bandwidth.Flow{SM: sm, Slices: slices}
		}
		r, err := eng.Solve(flows)
		if err != nil {
			return 0, err
		}
		return float64(r.TotalGBs), nil
	}
	allSMs := make([]int, cfg.SMs())
	for i := range allSMs {
		allSMs[i] = i
	}
	mpSlices := func(n int) []int {
		var s []int
		for mp := 0; mp < n; mp++ {
			s = append(s, dev.SlicesOfMP(mp)...)
		}
		return s
	}

	// (a) all SMs to N slices, contiguous (one MP) vs distributed.
	ta := &Table{Name: "Fig 15(a): all SMs, slice placement", Columns: []string{"slices", "contiguous MP GB/s", "distributed MP GB/s"}}
	for _, n := range []int{1, 2, 4} {
		contig := dev.SlicesOfMP(0)[:n]
		distrib := make([]int, n)
		for i := range distrib {
			distrib[i] = i // slice i lives in MP i
		}
		c, err := run(allSMs, contig)
		if err != nil {
			return nil, err
		}
		d, err := run(allSMs, distrib)
		if err != nil {
			return nil, err
		}
		ta.Rows = append(ta.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.0f", c), fmt.Sprintf("%.0f", d)})
	}

	// (b) N SMs to one MP: contiguous GPCs vs distributed SMs.
	tb := &Table{Name: "Fig 15(b): SM placement, one MP", Columns: []string{"SMs", "contiguous GB/s", "distributed GB/s"}}
	oneMP := dev.SlicesOfMP(0)
	for _, n := range []int{14, 28} {
		contig := append(append([]int{}, dev.SMsOfGPC(0)...), dev.SMsOfGPC(1)...)[:n]
		distrib := allSMs[:n]
		c, err := run(contig, oneMP)
		if err != nil {
			return nil, err
		}
		d, err := run(distrib, oneMP)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.0f", c), fmt.Sprintf("%.0f", d)})
	}

	// (c) 14 SMs to 1..4 MPs.
	tc := &Table{Name: "Fig 15(c): 14 SMs, widening MP set", Columns: []string{"MPs", "contiguous SM GB/s", "distributed SM GB/s"}}
	for _, n := range []int{1, 2, 4} {
		c, err := run(dev.SMsOfGPC(0), mpSlices(n))
		if err != nil {
			return nil, err
		}
		d, err := run(allSMs[:14], mpSlices(n))
		if err != nil {
			return nil, err
		}
		tc.Rows = append(tc.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.0f", c), fmt.Sprintf("%.0f", d)})
	}
	return []Artifact{ta, tb, tc}, nil
}
