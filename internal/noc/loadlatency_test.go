package noc

import (
	"math"
	"math/rand"
	"testing"
)

// recordingSink keeps every delivery so a test can recompute latency
// means under different counting rules.
type recordingSink struct {
	created   []int64
	delivered []int64
}

func (s *recordingSink) Accept(p Packet, lastFlit bool, cycle int64) bool {
	if lastFlit {
		s.created = append(s.created, p.CreatedAt)
		s.delivered = append(s.delivered, cycle)
	}
	return true
}

// AvgLatency used to subtract warm-up sums but still counted packets
// injected DURING warm-up and delivered during measurement; near
// saturation those carry warm-up queueing and bias the mean upward.
// Replay the sweep's exact injection sequence with a recording sink,
// recompute both counting rules, and check RunLoadLatency matches the
// unbiased rule at every default rate. At the highest rate, where the
// bias was worst, the two rules must disagree, or the check could not
// tell them apart.
func TestLoadLatencyWarmupBiasGone(t *testing.T) {
	cfg := DefaultLoadLatencyConfig(RoundRobin, 11)
	points, err := RunLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range cfg.Rates {
		unbiased, old := replayLoadLatency(t, cfg, rate)
		if got := float64(points[i].AvgLatency); math.Abs(got-unbiased) > 1e-9 {
			t.Errorf("rate %.2f: AvgLatency = %.4f, want unbiased %.4f (old biased rule gives %.4f)", rate, got, unbiased, old)
		}
		if i == len(cfg.Rates)-1 && old <= unbiased {
			t.Fatalf("rate %.2f: old counting rule (%.2f) not above unbiased (%.2f); test lost its teeth", rate, old, unbiased)
		}
	}
}

// replayLoadLatency is an independent replica of one RunLoadLatency
// point: same topology, same seed, same rng consumption order, and a
// sink that always accepts, so the mesh dynamics are identical. It
// returns the mean latency under the unbiased rule (packets created
// during measurement) and under the old one (packets delivered during
// measurement).
func replayLoadLatency(t *testing.T, cfg LoadLatencyConfig, rate float64) (unbiased, old float64) {
	t.Helper()
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	// MCs on the bottom row, compute nodes everywhere else.
	rec := &recordingSink{}
	var mcs, compute []int
	for y := 0; y < cfg.Mesh.Height; y++ {
		for x := 0; x < cfg.Mesh.Width; x++ {
			if n := m.NodeAt(x, y); y < cfg.Mesh.Height-1 {
				compute = append(compute, n)
			} else {
				mcs = append(mcs, n)
				m.SetSink(n, rec)
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Warmup+cfg.Cycles; c++ {
		for _, src := range compute {
			if rng.Float64() >= rate {
				continue
			}
			if m.PendingInjection(src) > 16*cfg.PacketFlits {
				continue
			}
			dst := mcs[rng.Intn(len(mcs))]
			if _, err := m.Inject(src, dst, cfg.PacketFlits); err != nil {
				t.Fatal(err)
			}
		}
		m.Step()
	}

	warm := int64(cfg.Warmup)
	var unbPkts, unbLat, oldPkts, oldLat int64
	for i := range rec.created {
		lat := rec.delivered[i] - rec.created[i]
		if rec.created[i] >= warm {
			unbPkts++
			unbLat += lat
		}
		if rec.delivered[i] >= warm {
			oldPkts++
			oldLat += lat
		}
	}
	if unbPkts == 0 || oldPkts == 0 {
		t.Fatalf("rate %.2f: replica recorded no deliveries", rate)
	}
	return float64(unbLat) / float64(unbPkts), float64(oldLat) / float64(oldPkts)
}
