package core

import (
	"fmt"

	"gpunoc/internal/gpu"
	"gpunoc/internal/microbench"
	"gpunoc/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Table I: Microarchitecture comparison of modelled NVIDIA GPUs",
		Paper: "V100/A100/H100 headline parameters",
		Run:   runTable1,
	})
	register(&Experiment{
		ID:    "fig1",
		Title: "Fig 1: Non-uniform L2 access latency and per-GPC statistics",
		Paper: "V100: SM24 sees 175-248 cycles across slices, mean ~212; GPC averages similar, variation differs",
		GPUs:  []gpu.Generation{gpu.GenV100},
		Run:   runFig1,
	})
	register(&Experiment{
		ID:    "fig2",
		Title: "Fig 2: L2 latency histograms of two GPCs",
		Paper: "GPC0 mu=213 sigma=13.9; GPC2 mu=209 sigma=7.5 on V100",
		GPUs:  []gpu.Generation{gpu.GenV100},
		Run:   runFig2,
	})
	register(&Experiment{
		ID:    "fig3",
		Title: "Fig 3: Latency-sorted slice order grouped by MP, across SMs",
		Paper: "Sorted slice order within each MP identical from every SM",
		Run:   runFig3,
	})
	register(&Experiment{
		ID:    "fig4",
		Title: "Fig 4: Approximate logical floorplan",
		Paper: "V100 die: GPC columns with the MP/L2 band; closely placed SM/slice pairs have lowest latency",
		Run:   runFig4,
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "Fig 5: Latency between one GPC's SMs and one MP's slices",
		Paper: "Physically closer SM/slice pairs have lower latency (GPC4 x MP3, 180..217 cycles)",
		Run:   runFig5,
	})
	register(&Experiment{
		ID:    "fig6",
		Title: "Fig 6: Pearson correlation heatmap of SM latency profiles",
		Paper: "V100: GPC pairs correlate; A100: partition structure; H100: CPC sub-blocks",
		Run:   runFig6,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Fig 7: H100 SM-to-SM latency across CPC pairs",
		Paper: "196 cycles within CPC0 up to ~213 within CPC2",
		GPUs:  []gpu.Generation{gpu.GenH100},
		Run:   runFig7,
	})
	register(&Experiment{
		ID:    "fig8",
		Title: "Fig 8: GPC-to-MP hit latency and miss penalty",
		Paper: "V100 flat ~212; A100 near ~212 far ~400; H100 hits uniform but miss penalty varies",
		Run:   runFig8,
	})
}

func runTable1(ctx *Context) ([]Artifact, error) {
	t := &Table{
		Name:    "Table I (modelled)",
		Columns: []string{"Parameter", "V100", "A100", "H100"},
	}
	cfgs := gpu.AllConfigs()
	row := func(name string, f func(c gpu.Config) string) {
		r := []string{name}
		for _, c := range cfgs {
			r = append(r, f(c))
		}
		t.Rows = append(t.Rows, r)
	}
	row("GPCs", func(c gpu.Config) string { return fmt.Sprint(c.GPCs) })
	row("TPCs/GPC", func(c gpu.Config) string { return fmt.Sprint(c.TPCsPerGPC) })
	row("CPCs/GPC", func(c gpu.Config) string { return fmt.Sprint(c.CPCsPerGPC) })
	row("SMs", func(c gpu.Config) string { return fmt.Sprint(c.SMs()) })
	row("GPU partitions", func(c gpu.Config) string { return fmt.Sprint(c.Partitions) })
	row("L2 slices", func(c gpu.Config) string { return fmt.Sprint(c.L2Slices) })
	row("Memory partitions", func(c gpu.Config) string { return fmt.Sprint(c.MPs) })
	row("L2 size (MiB)", func(c gpu.Config) string { return fmt.Sprint(c.L2SizeMiB) })
	row("Memory BW (GB/s)", func(c gpu.Config) string { return fmt.Sprintf("%.0f", c.MemBWGBs) })
	row("Core clock (MHz)", func(c gpu.Config) string { return fmt.Sprint(c.CoreClockMHz) })
	row("Partition-local L2", func(c gpu.Config) string { return fmt.Sprint(c.LocalL2Caching) })
	return []Artifact{t}, nil
}

func runFig1(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	iters := ctx.iters(16, 4)
	b := microbench.NewBench(ctx.Obs)

	// (a) one SM's latency to every slice, x-axis = profiler slice ID.
	const probeSM = 24
	profile, err := b.LatencyProfile(dev, probeSM, iters)
	if err != nil {
		return nil, err
	}
	sa := &Series{
		Name:   fmt.Sprintf("Fig 1(a): L2 latency from SM %d to each slice", probeSM),
		XLabel: "L2 slice ID", YLabel: "cycles",
		X: make([]float64, len(profile)), Y: profile,
	}
	for i := range sa.X {
		sa.X[i] = float64(i)
	}

	// (b) per-GPC average and spread.
	tb := &Table{
		Name:    "Fig 1(b): per-GPC latency statistics",
		Columns: []string{"GPC", "mean", "sigma", "min", "max"},
	}
	for g := 0; g < cfg.GPCs; g++ {
		var xs []float64
		for _, sm := range dev.SMsOfGPC(g) {
			// Sampling a subset of SMs keeps the quick mode fast while
			// covering the whole GPC in full mode.
			if ctx.Quick && sm > 2*cfg.GPCs {
				continue
			}
			p, err := b.LatencyProfile(dev, sm, iters)
			if err != nil {
				return nil, err
			}
			xs = append(xs, p...)
		}
		sum := stats.Summarize(xs)
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprint(g),
			fmt.Sprintf("%.1f", sum.Mean), fmt.Sprintf("%.1f", sum.StdDev),
			fmt.Sprintf("%.1f", sum.Min), fmt.Sprintf("%.1f", sum.Max),
		})
	}
	return []Artifact{sa, tb}, nil
}

func runFig2(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	iters := ctx.iters(8, 2)
	b := microbench.NewBench(ctx.Obs)
	var arts []Artifact
	for _, g := range []int{0, 2} {
		var xs []float64
		for _, sm := range dev.SMsOfGPC(g) {
			p, err := b.LatencyProfile(dev, sm, iters)
			if err != nil {
				return nil, err
			}
			xs = append(xs, p...)
		}
		h := stats.HistogramOf(xs, 24)
		sum := stats.Summarize(xs)
		arts = append(arts, &Text{
			Name: fmt.Sprintf("Fig 2: GPC%d latency histogram (mu=%.1f sigma=%.1f)", g, sum.Mean, sum.StdDev),
			Body: h.Render(40),
		})
	}
	return arts, nil
}

func runFig3(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	iters := ctx.iters(16, 4)
	// Two SMs each from two GPCs, as in the paper's four panels.
	sms := []int{
		dev.SMsOfGPC(0)[0], dev.SMsOfGPC(0)[4],
		dev.SMsOfGPC(cfg.GPCs / 2)[0], dev.SMsOfGPC(cfg.GPCs / 2)[4],
	}
	ms := &MultiSeries{
		Name:   "Fig 3: slice latencies grouped by MP, sorted by SM0's order",
		XLabel: "slice (grouped by MP, sorted)", YLabel: "cycles",
	}
	// Build the reference ordering from the first SM: group by MP, sort
	// within each group by its latency.
	b := microbench.NewBench(ctx.Obs)
	ref, err := b.LatencyProfile(dev, sms[0], iters)
	if err != nil {
		return nil, err
	}
	var order []int
	for mp := 0; mp < cfg.MPs; mp++ {
		slices := dev.SlicesOfMP(mp)
		lat := make([]float64, len(slices))
		for i, s := range slices {
			lat[i] = ref[s]
		}
		for _, idx := range stats.Argsort(lat) {
			order = append(order, slices[idx])
		}
	}
	ms.X = make([]float64, len(order))
	for i := range ms.X {
		ms.X[i] = float64(i)
	}
	for _, sm := range sms {
		p, err := b.LatencyProfile(dev, sm, iters)
		if err != nil {
			return nil, err
		}
		y := make([]float64, len(order))
		for i, s := range order {
			y[i] = p[s]
		}
		ms.Lines = append(ms.Lines, NamedLine{Label: fmt.Sprintf("SM%d(GPC%d)", sm, dev.GPCOf(sm)), Y: y})
	}
	return []Artifact{ms}, nil
}

func runFig4(ctx *Context) ([]Artifact, error) {
	return []Artifact{&Text{
		Name: "Fig 4: approximate logical floorplan",
		Body: ctx.Device.Plan().Render(),
	}}, nil
}

func runFig5(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	iters := ctx.iters(16, 4)
	gpc := cfg.GPCs - 2 // an edge GPC, like the paper's GPC4
	if gpc < 0 {
		gpc = 0
	}
	mp := cfg.MPs / 2
	b := microbench.NewBench(ctx.Obs)
	hm := &Heatmap{Name: fmt.Sprintf("Fig 5: latency from GPC%d SMs to MP%d slices", gpc, mp)}
	for _, s := range dev.SlicesOfMP(mp) {
		hm.XLabels = append(hm.XLabels, fmt.Sprintf("s%d", s))
	}
	for _, sm := range dev.SMsOfGPC(gpc) {
		hm.YLabels = append(hm.YLabels, fmt.Sprintf("SM%d", sm))
		row := make([]float64, 0, cfg.SlicesPerMP())
		for _, s := range dev.SlicesOfMP(mp) {
			r, err := b.MeasureL2Latency(dev, sm, s, iters)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Summary.Mean)
		}
		hm.Values = append(hm.Values, row)
	}
	return []Artifact{hm}, nil
}

func runFig6(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	// Sample SMs: full mode uses 4 SMs per GPC, quick uses 2.
	perGPC := 4
	if ctx.Quick {
		perGPC = 2
	}
	var sms []int
	for g := 0; g < cfg.GPCs; g++ {
		gsms := dev.SMsOfGPC(g)
		step := len(gsms) / perGPC
		if step == 0 {
			step = 1
		}
		for i := 0; i < perGPC && i*step < len(gsms); i++ {
			sms = append(sms, gsms[i*step])
		}
	}
	m, err := microbench.NewBench(ctx.Obs).CorrelationHeatmap(dev, sms, ctx.iters(8, 2))
	if err != nil {
		return nil, err
	}
	hm := &Heatmap{
		Name: fmt.Sprintf("Fig 6 (%s): Pearson correlation of SM latency profiles", cfg.Name),
		Lo:   -1, Hi: 1,
		Values: m,
	}
	for _, sm := range sms {
		label := fmt.Sprintf("SM%d/G%d", sm, dev.GPCOf(sm))
		hm.XLabels = append(hm.XLabels, label)
		hm.YLabels = append(hm.YLabels, label)
	}
	return []Artifact{hm}, nil
}

func runFig7(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	m, err := microbench.SMToSMLatencyMatrix(dev, 0, ctx.iters(16, 4))
	if err != nil {
		return nil, err
	}
	hm := &Heatmap{Name: "Fig 7(b): SM-to-SM latency by (src, dst) CPC pair", Values: m}
	for c := range m {
		hm.XLabels = append(hm.XLabels, fmt.Sprintf("CPC%d", c))
		hm.YLabels = append(hm.YLabels, fmt.Sprintf("CPC%d", c))
	}
	return []Artifact{hm}, nil
}

func runFig8(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	iters := ctx.iters(4, 1)
	b := microbench.NewBench(ctx.Obs)
	hit, err := b.GPCToMPLatency(dev, 0, iters)
	if err != nil {
		return nil, err
	}
	pen, err := b.GPCToMPMissPenalty(dev, 0, iters)
	if err != nil {
		return nil, err
	}
	x := make([]float64, cfg.GPCs)
	for i := range x {
		x[i] = float64(i)
	}
	top := &Series{
		Name:   fmt.Sprintf("Fig 8 top (%s): avg L2 hit latency from each GPC to MP0", cfg.Name),
		XLabel: "GPC", YLabel: "cycles", X: x, Y: hit,
	}
	bottom := &Series{
		Name:   fmt.Sprintf("Fig 8 bottom (%s): avg L2 miss penalty from each GPC for MP0-homed lines", cfg.Name),
		XLabel: "GPC", YLabel: "cycles", X: x, Y: pen,
	}
	return []Artifact{top, bottom}, nil
}
