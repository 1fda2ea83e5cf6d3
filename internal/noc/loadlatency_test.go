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
// recompute both counting rules, and check RunLoadLatency now matches
// the unbiased rule - at the highest swept rate, where the bias was
// worst.
func TestLoadLatencyWarmupBiasGone(t *testing.T) {
	cfg := DefaultLoadLatencyConfig(RoundRobin, 11)
	rate := cfg.Rates[len(cfg.Rates)-1]
	cfg.Rates = []float64{rate}

	// Replica of RunLoadLatency's loop: same topology, same seed, same
	// rng consumption order; the sink always accepts in both, so the
	// mesh dynamics are identical.
	m, err := NewMesh(cfg.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	var mcs []int
	for x := 0; x < cfg.Mesh.Width; x++ {
		mcs = append(mcs, m.NodeAt(x, cfg.Mesh.Height-1))
	}
	rec := &recordingSink{}
	isMC := map[int]bool{}
	for _, n := range mcs {
		m.SetSink(n, rec)
		isMC[n] = true
	}
	var compute []int
	for n := 0; n < m.Nodes(); n++ {
		if !isMC[n] {
			compute = append(compute, n)
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
			// The fixed rule: only measurement-created packets.
			unbPkts++
			unbLat += lat
		}
		if rec.delivered[i] >= warm {
			// The old rule: everything delivered during measurement,
			// including warm-up-created packets.
			oldPkts++
			oldLat += lat
		}
	}
	if unbPkts == 0 || oldPkts == 0 {
		t.Fatal("replica recorded no deliveries")
	}
	unbiased := float64(unbLat) / float64(unbPkts)
	old := float64(oldLat) / float64(oldPkts)
	// Sanity: the two rules genuinely disagree at saturation, so the
	// assertion below distinguishes old from new behaviour.
	if old <= unbiased {
		t.Fatalf("old counting rule (%.2f) not above unbiased (%.2f); test lost its teeth", old, unbiased)
	}

	points, err := RunLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(points[0].AvgLatency)
	if math.Abs(got-unbiased) > 1e-9 {
		t.Errorf("AvgLatency = %.4f, want unbiased %.4f (old biased rule gives %.4f)", got, unbiased, old)
	}
}
