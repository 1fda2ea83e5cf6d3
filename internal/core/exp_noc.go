package core

import (
	"fmt"

	"gpunoc/internal/noc"
)

func init() {
	register(&Experiment{
		ID:    "fig20",
		Title: "Fig 20: many-to-few-to-many communication pattern",
		Paper: "Request network (many cores -> few MCs) and reply network; interface BW highlighted",
		Run:   runFig20,
	})
	register(&Experiment{
		ID:    "fig21",
		Title: "Fig 21: memory-channel utilization under the reply bottleneck",
		Paper: "Simulated baseline reaches max briefly but averages ~20% from reply backpressure",
		Run:   runFig21,
	})
	register(&Experiment{
		ID:    "fig22",
		Title: "Fig 22: memory BW vs NoC-MEM interface BW in prior-work configs",
		Paper: "Several simulation baselines sit below the line, creating a network wall",
		Run:   runFig22,
	})
	register(&Experiment{
		ID:    "fig23",
		Title: "Fig 23: mesh throughput fairness, round-robin vs age-based",
		Paper: "6x6 mesh, 30 cores, 6 MCs: RR up to 2.4x unfair; age-based near-fair",
		Run:   runFig23,
	})
}

func runFig20(ctx *Context) ([]Artifact, error) {
	body := `
  many cores                 few MCs                many cores
  [C][C][C]...[C]           [MC]..[MC]            [C][C][C]...[C]
       \\  |  //   request      ||       reply        \\  |  //
      ==============>  BW(NoC-MEM)  ==============>
        bisection BW(NoC-Bc)       interface BW is the
        matters only if sources    series bottleneck when
        can saturate it            replies carry cache lines`
	return []Artifact{&Text{Name: "Fig 20: many-to-few-to-many", Body: body}}, nil
}

func runFig21(ctx *Context) ([]Artifact, error) {
	cfg := noc.DefaultGPUSimConfig(1)
	if ctx.Quick {
		cfg.Cycles = 6000
		cfg.Warmup = 1000
	}
	cfg.Obs = ctx.Obs.Scope("narrow")
	narrow, err := noc.RunGPUSim(cfg)
	if err != nil {
		return nil, err
	}
	wideCfg := cfg
	wideCfg.ReplyFlits = 1
	wideCfg.Obs = ctx.Obs.Scope("wide")
	wide, err := noc.RunGPUSim(wideCfg)
	if err != nil {
		return nil, err
	}
	series := &Series{
		Name:   "Fig 21: memory-channel utilization over time (cache-line replies)",
		XLabel: fmt.Sprintf("window (%d cycles)", cfg.UtilWindow), YLabel: "utilization",
	}
	for i, u := range narrow.UtilSeries {
		series.X = append(series.X, float64(i))
		series.Y = append(series.Y, u)
	}
	summary := &Table{
		Name:    "Fig 21 summary",
		Columns: []string{"reply size (flits)", "avg mem utilization", "reply-interface util", "requests served"},
		Rows: [][]string{
			{fmt.Sprint(cfg.ReplyFlits), fmt.Sprintf("%.1f%%", 100*narrow.MemUtilization),
				fmt.Sprintf("%.1f%%", 100*narrow.ReplyInterfaceUtilization), fmt.Sprint(narrow.RequestsServed)},
			{"1 (matched)", fmt.Sprintf("%.1f%%", 100*wide.MemUtilization),
				fmt.Sprintf("%.1f%%", 100*wide.ReplyInterfaceUtilization), fmt.Sprint(wide.RequestsServed)},
		},
	}
	return []Artifact{series, summary}, nil
}

func runFig22(ctx *Context) ([]Artifact, error) {
	reports, walled, err := noc.AnalyzeNetworkWall(noc.PriorWorkPoints())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    fmt.Sprintf("Fig 22: network-wall analysis (%d of %d configurations walled)", walled, len(reports)),
		Columns: []string{"configuration", "BW_mem GB/s", "BW_NoC-MEM GB/s", "network wall"},
	}
	for _, r := range reports {
		t.Rows = append(t.Rows, []string{
			r.Point.Name,
			fmt.Sprintf("%.0f", r.Point.MemBWGBs),
			fmt.Sprintf("%.0f", r.NoCMem),
			fmt.Sprint(r.Walled),
		})
	}
	return []Artifact{t}, nil
}

func runFig23(ctx *Context) ([]Artifact, error) {
	var arts []Artifact
	for _, arb := range []noc.Arbiter{noc.RoundRobin, noc.AgeBased} {
		cfg := noc.DefaultFairnessConfig(arb, 42)
		if ctx.Quick {
			cfg.Cycles = 5000
			cfg.Warmup = 1000
		}
		cfg.Obs = ctx.Obs.Scope(arb.String())
		res, err := noc.RunFairness(cfg)
		if err != nil {
			return nil, err
		}
		s := &Series{
			Name:   fmt.Sprintf("Fig 23 (%s): per-node accepted throughput (max/min %.2fx)", arb, res.MaxMinRatio),
			XLabel: "compute node", YLabel: "packets/cycle",
		}
		for i, node := range res.ComputeNodes {
			s.X = append(s.X, float64(node))
			s.Y = append(s.Y, res.Throughput[i])
		}
		arts = append(arts, s)
	}
	return arts, nil
}
