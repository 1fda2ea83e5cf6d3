package core

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/gpu"
	"gpunoc/internal/kernel"
	"gpunoc/internal/rsa"
	"gpunoc/internal/sidechannel"
	"gpunoc/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "fig16",
		Title: "Fig 16: per-slice traffic over time for bfs and gaussian",
		Paper: "Traffic volume varies over time but the hash keeps slices balanced",
		Run:   runFig16,
	})
	register(&Experiment{
		ID:    "fig17",
		Title: "Fig 17: timing vs unique lines per SM; square-kernel placement sweep",
		Paper: "Linear in unique lines with per-SM shifts; square kernel up to 1.7x across partitions",
		Run:   runFig17,
	})
	register(&Experiment{
		ID:    "fig18",
		Title: "Fig 18: AES key recovery under static vs random scheduling",
		Paper: "Static: correct key byte's correlation peaks; random scheduling flattens it",
		Run:   runFig18,
	})
	register(&Experiment{
		ID:    "fig19",
		Title: "Fig 19: RSA ones-count recovery under static vs random scheduling",
		Paper: "Static: clean line, accurate inference; random: noisy, inference fails",
		GPUs:  []gpu.Generation{gpu.GenA100, gpu.GenH100},
		Run:   runFig19,
	})
}

func runFig16(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	nodes, matSize := 20000, 512
	if ctx.Quick {
		nodes, matSize = 4000, 128
	}
	bfs, err := workload.NewBFS(nodes, 6, 3)
	if err != nil {
		return nil, err
	}
	gauss, err := workload.NewGaussian(matSize, 1)
	if err != nil {
		return nil, err
	}
	var arts []Artifact
	for _, g := range []workload.Generator{bfs, gauss} {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		matrix, err := workload.TrafficMatrix(dev, g)
		if err != nil {
			return nil, err
		}
		balance := workload.AnalyzeBalance(matrix, 500)
		t := &Table{
			Name:    fmt.Sprintf("Fig 16 (%s): per-step traffic volume and slice balance", g.Name()),
			Columns: []string{"step", "transactions", "slice CV"},
		}
		step := len(balance) / 16
		if step == 0 {
			step = 1
		}
		for s := 0; s < len(balance); s += step {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(s),
				fmt.Sprintf("%.0f", balance[s].Total),
				fmt.Sprintf("%.3f", balance[s].CV),
			})
		}
		arts = append(arts, t)
	}
	return arts, nil
}

func runFig17(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	cfg := dev.Config()
	repeats := ctx.iters(16, 4)

	// (a) timing vs unique lines, a few SMs.
	ms := &MultiSeries{
		Name:   "Fig 17(a): warp latency vs unique sectors, per SM",
		XLabel: "unique 32B sectors", YLabel: "cycles",
	}
	for n := 1; n <= 32; n++ {
		ms.X = append(ms.X, float64(n))
	}
	for _, sm := range []int{0, cfg.GPCs, 4 * cfg.GPCs} {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		curve, err := sidechannel.TimingVsUniqueLines(dev, sm, 32, repeats)
		if err != nil {
			return nil, err
		}
		ms.Lines = append(ms.Lines, NamedLine{Label: fmt.Sprintf("SM%d", sm), Y: curve})
	}
	arts := []Artifact{ms}

	// (b) square-kernel placement sweep (partitioned GPUs only).
	if cfg.Partitions > 1 {
		candidates := []int{}
		for i := 1; i < cfg.SMs() && len(candidates) < 12; i += cfg.GPCs/2 + 1 {
			candidates = append(candidates, i)
		}
		times, err := sidechannel.SquareKernelSweep(dev, 0, candidates)
		if err != nil {
			return nil, err
		}
		s := &Series{
			Name:   "Fig 17(b): square-kernel time vs second-SM placement",
			XLabel: "candidate SM", YLabel: "cycles",
		}
		for i, sm := range candidates {
			s.X = append(s.X, float64(sm))
			s.Y = append(s.Y, times[i])
		}
		arts = append(arts, s)
	}
	return arts, nil
}

func runFig18(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	samples := 15000
	nBytes := 4
	if ctx.Quick {
		samples = 2500
		nBytes = 1
	}
	var arts []Artifact
	for _, mode := range []string{"static", "random"} {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		var sched kernel.Scheduler = kernel.StaticScheduler{}
		if mode == "random" {
			rng := rand.New(rand.NewSource(99))
			sched = kernel.RandomScheduler{Rand: rng.Uint64}
		}
		m, err := kernel.NewMachine(dev, sched, kernel.DefaultOptions())
		if err != nil {
			return nil, err
		}
		victim, err := sidechannel.NewAESVictim(m, key)
		if err != nil {
			return nil, err
		}
		obs, err := sidechannel.CollectAESSamples(victim, samples, rand.New(rand.NewSource(5)))
		if err != nil {
			return nil, err
		}
		truth := victim.Key().LastRoundKey()
		t := &Table{
			Name:    fmt.Sprintf("Fig 18 (%s scheduling): AES last-round key recovery", mode),
			Columns: []string{"byte", "truth", "recovered", "corr(best)", "margin", "hit"},
		}
		for j := 0; j < nBytes; j++ {
			r, err := sidechannel.RecoverAESKeyByte(obs, j, 32)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(j),
				fmt.Sprintf("%02x", truth[j]),
				fmt.Sprintf("%02x", r.Best),
				fmt.Sprintf("%.3f", r.Correlations[r.Best]),
				fmt.Sprintf("%.3f", r.Margin),
				fmt.Sprint(r.Best == truth[j]),
			})
		}
		arts = append(arts, t)
	}
	return arts, nil
}

func runFig19(ctx *Context) ([]Artifact, error) {
	dev := ctx.Device
	// The registry keeps V100 away; this guards a direct Run on a
	// custom spec without partitions.
	if dev.Config().Partitions < 2 {
		return nil, fmt.Errorf("core: fig19 models the partitioned-GPU RSA kernel; run on A100 or H100")
	}
	ones := []int{8, 16, 24, 32, 40, 48, 56}
	repeats := ctx.iters(4, 2)
	rng := rand.New(rand.NewSource(3))
	gpc := dev.Config().GPCs

	mkTimer := func(sched kernel.Scheduler) (*rsa.GPUTimer, error) {
		opts := kernel.DefaultOptions()
		opts.GridSync = true
		m, err := kernel.NewMachine(dev, sched, opts)
		if err != nil {
			return nil, err
		}
		return rsa.NewGPUTimer(m), nil
	}

	t := &Table{
		Name:    "Fig 19: RSA ones-count inference",
		Columns: []string{"scheduling", "fit R", "slope cyc/one", "inference MAE (bits)"},
	}
	// Static: calibrate and test on the same fixed SM pair.
	static, err := mkTimer(kernel.ListScheduler{SMs: []int{0, gpc}})
	if err != nil {
		return nil, err
	}
	calib, err := sidechannel.CollectRSATimings(static, 64, ones, repeats, rng)
	if err != nil {
		return nil, err
	}
	test, err := sidechannel.CollectRSATimings(static, 64, ones, 2, rng)
	if err != nil {
		return nil, err
	}
	fit, mae, err := sidechannel.EvaluateRSAAttack(calib, test)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"static", fmt.Sprintf("%.4f", fit.R), fmt.Sprintf("%.0f", fit.Slope), fmt.Sprintf("%.2f", mae)})

	// Random scheduling: calibration no longer predicts execution.
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	schedRng := rand.New(rand.NewSource(7))
	random, err := mkTimer(kernel.RandomScheduler{Rand: schedRng.Uint64})
	if err != nil {
		return nil, err
	}
	calibR, err := sidechannel.CollectRSATimings(random, 64, ones, repeats, rng)
	if err != nil {
		return nil, err
	}
	testR, err := sidechannel.CollectRSATimings(random, 64, ones, 2, rng)
	if err != nil {
		return nil, err
	}
	fitR, maeR, err := sidechannel.EvaluateRSAAttack(calibR, testR)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"random", fmt.Sprintf("%.4f", fitR.R), fmt.Sprintf("%.0f", fitR.Slope), fmt.Sprintf("%.2f", maeR)})
	return []Artifact{t}, nil
}
