package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpunoc/internal/stats"
)

func v100() *Device { return MustNew(V100()) }
func a100() *Device { return MustNew(A100()) }
func h100() *Device { return MustNew(H100()) }

func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"invalid hierarchy", func() Config { c := V100(); c.GPCs = 0; return c }},
		{"floorplan GPC mismatch", func() Config { c := V100(); c.Floorplan.GPCs = 4; return c }},
		{"floorplan MP mismatch", func() Config { c := V100(); c.Floorplan.MPs = 4; return c }},
		// Both configs pass Validate and used to build a Device whose
		// latency model panicked (a CPC index past the plan's 3) or
		// returned slice ids past L2Slices (a mirror into a partition the
		// plan does not have).
		{"floorplan CPC mismatch", func() Config { c := H100(); c.SMsPerTPC = 1; c.CPCsPerGPC = 9; return c }},
		{"floorplan partition mismatch", func() Config { c := H100(); c.Partitions = 1; return c }},
	} {
		if _, err := New(tc.cfg()); err == nil {
			t.Errorf("%s: New should reject the config", tc.name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	cfg := V100()
	cfg.MPs = 0
	MustNew(cfg)
}

func TestHierarchyEnumeration(t *testing.T) {
	d := v100()
	// The paper's Fig. 3 SM groupings: SM 24 and 60 in GPC0, SM 28 and 64
	// in GPC4 on the 6-GPC V100.
	for _, c := range []struct{ sm, gpc int }{{24, 0}, {60, 0}, {28, 4}, {64, 4}} {
		if got := d.GPCOf(c.sm); got != c.gpc {
			t.Errorf("GPCOf(%d) = %d, want %d", c.sm, got, c.gpc)
		}
	}
	if got := d.LocalIndex(24); got != 4 {
		t.Errorf("LocalIndex(24) = %d, want 4", got)
	}
	if got := d.TPCOf(24); got != 2 {
		t.Errorf("TPCOf(24) = %d, want 2", got)
	}
	if got := d.CPCOf(24); got != -1 {
		t.Errorf("V100 CPCOf = %d, want -1", got)
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	for _, d := range []*Device{v100(), a100(), h100()} {
		cfg := d.Config()
		seen := map[int]bool{}
		for g := 0; g < cfg.GPCs; g++ {
			sms := d.SMsOfGPC(g)
			if len(sms) != cfg.SMsPerGPC() {
				t.Fatalf("%s SMsOfGPC(%d) len = %d, want %d", cfg.Name, g, len(sms), cfg.SMsPerGPC())
			}
			for _, sm := range sms {
				if d.GPCOf(sm) != g {
					t.Fatalf("%s SM%d not in GPC%d", cfg.Name, sm, g)
				}
				if seen[sm] {
					t.Fatalf("%s SM%d enumerated twice", cfg.Name, sm)
				}
				seen[sm] = true
			}
		}
		if len(seen) != cfg.SMs() {
			t.Errorf("%s enumerated %d SMs, want %d", cfg.Name, len(seen), cfg.SMs())
		}
	}
}

func TestSMsOfTPCPairs(t *testing.T) {
	d := v100()
	sms := d.SMsOfTPC(0, 2)
	if len(sms) != 2 {
		t.Fatalf("TPC has %d SMs, want 2", len(sms))
	}
	for _, sm := range sms {
		if d.GPCOf(sm) != 0 || d.TPCOf(sm) != 2 {
			t.Errorf("SM%d misplaced: GPC%d TPC%d", sm, d.GPCOf(sm), d.TPCOf(sm))
		}
	}
}

func TestSMsOfCPC(t *testing.T) {
	h := h100()
	for cpc := 0; cpc < 3; cpc++ {
		sms := h.SMsOfCPC(1, cpc)
		if len(sms) != 6 { // 3 TPCs x 2 SMs
			t.Fatalf("CPC%d has %d SMs, want 6", cpc, len(sms))
		}
		for _, sm := range sms {
			if h.CPCOf(sm) != cpc || h.GPCOf(sm) != 1 {
				t.Errorf("SM%d misplaced: GPC%d CPC%d", sm, h.GPCOf(sm), h.CPCOf(sm))
			}
		}
	}
	if v100().SMsOfCPC(0, 0) != nil {
		t.Error("V100 SMsOfCPC should be nil")
	}
}

func TestSliceEnumeration(t *testing.T) {
	d := v100()
	cfg := d.Config()
	counts := make([]int, cfg.MPs)
	for s := 0; s < cfg.L2Slices; s++ {
		counts[d.MPOfSlice(s)]++
	}
	for mp, n := range counts {
		if n != cfg.SlicesPerMP() {
			t.Errorf("MP%d has %d slices, want %d", mp, n, cfg.SlicesPerMP())
		}
	}
	for mp := 0; mp < cfg.MPs; mp++ {
		for _, s := range d.SlicesOfMP(mp) {
			if d.MPOfSlice(s) != mp {
				t.Errorf("slice %d not in MP%d", s, mp)
			}
		}
	}
}

func TestSlicesOfPartition(t *testing.T) {
	a := a100()
	left := a.SlicesOfPartition(0)
	right := a.SlicesOfPartition(1)
	if len(left) != 40 || len(right) != 40 {
		t.Fatalf("partition slice counts = %d/%d, want 40/40", len(left), len(right))
	}
	for _, s := range left {
		if a.PartitionOfSlice(s) != 0 {
			t.Errorf("slice %d should be in partition 0", s)
		}
	}
}

// --- Latency model: the paper's Observations #1-#6 ---------------------------

// Observation #1: latency from SMs to individual L2 slices is non-uniform,
// with the V100 spanning roughly 175-248 cycles around a ~212-cycle mean.
func TestV100LatencyCalibration(t *testing.T) {
	d := v100()
	cfg := d.Config()
	var all []float64
	for sm := 0; sm < cfg.SMs(); sm++ {
		for s := 0; s < cfg.L2Slices; s++ {
			all = append(all, float64(d.L2HitLatencyMean(sm, s)))
		}
	}
	sum := stats.Summarize(all)
	if sum.Mean < 200 || sum.Mean > 225 {
		t.Errorf("V100 mean latency %.1f outside [200, 225] (paper ~212)", sum.Mean)
	}
	if sum.Min < 170 || sum.Min > 195 {
		t.Errorf("V100 min latency %.1f outside [170, 195] (paper 175)", sum.Min)
	}
	if sum.Max < 240 || sum.Max > 265 {
		t.Errorf("V100 max latency %.1f outside [240, 265] (paper 248)", sum.Max)
	}
	if ratio := sum.Max / sum.Min; ratio < 1.25 {
		t.Errorf("V100 latency span ratio %.2f too small to be 'non-uniform'", ratio)
	}
}

// Observation #2: average latency is similar across GPCs but the variation
// within a GPC differs: centrally placed GPCs (2, 3) are narrower than
// edge GPCs (0, 1, 4, 5).
func TestV100PerGPCVariation(t *testing.T) {
	d := v100()
	cfg := d.Config()
	means := make([]float64, cfg.GPCs)
	sigmas := make([]float64, cfg.GPCs)
	for g := 0; g < cfg.GPCs; g++ {
		var xs []float64
		for _, sm := range d.SMsOfGPC(g) {
			for s := 0; s < cfg.L2Slices; s++ {
				xs = append(xs, float64(d.L2HitLatencyMean(sm, s)))
			}
		}
		sum := stats.Summarize(xs)
		means[g], sigmas[g] = sum.Mean, sum.StdDev
	}
	if spread := stats.Max(means) - stats.Min(means); spread > 10 {
		t.Errorf("per-GPC mean spread %.1f cycles; Observation #2 wants similar averages", spread)
	}
	for _, edge := range []int{0, 1, 4, 5} {
		for _, center := range []int{2, 3} {
			if sigmas[center] >= sigmas[edge] {
				t.Errorf("σ(GPC%d)=%.1f should be < σ(GPC%d)=%.1f (central GPCs are narrower)",
					center, sigmas[center], edge, sigmas[edge])
			}
		}
	}
}

// Observation #3: the latency-sorted order of slices within an MP is
// identical from every SM, and changing SM shifts latency by a constant.
func TestSliceOrderUniversal(t *testing.T) {
	d := v100()
	cfg := d.Config()
	for mp := 0; mp < cfg.MPs; mp++ {
		slices := d.SlicesOfMP(mp)
		ref := sliceOrder(d, 0, slices)
		for _, sm := range []int{1, 24, 28, 60, 64, 83} {
			got := sliceOrder(d, sm, slices)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("MP%d slice order differs between SM0 %v and SM%d %v", mp, ref, sm, got)
				}
			}
		}
	}
}

func sliceOrder(d *Device, sm int, slices []int) []int {
	lat := make([]float64, len(slices))
	for i, s := range slices {
		lat[i] = float64(d.L2HitLatencyMean(sm, s))
	}
	return stats.Argsort(lat)
}

// Same-GPC SMs differ by a pure constant (Fig. 5: "different SM locations
// result in a constant difference in L2 latency").
func TestSameGPCConstantShift(t *testing.T) {
	d := v100()
	cfg := d.Config()
	sms := d.SMsOfGPC(4)
	base := sms[0]
	for _, sm := range sms[1:] {
		diff0 := float64(d.L2HitLatencyMean(sm, 0) - d.L2HitLatencyMean(base, 0))
		for s := 1; s < cfg.L2Slices; s++ {
			diff := float64(d.L2HitLatencyMean(sm, s) - d.L2HitLatencyMean(base, s))
			if !almostEqual(diff, diff0, 1e-9) {
				t.Fatalf("SM%d vs SM%d: shift %.3f at slice %d != %.3f at slice 0", sm, base, diff, s, diff0)
			}
		}
	}
}

// Observation #4: Pearson correlation reveals placement. Same GPC ~1,
// paired-column neighbours (GPC0&1) ~1, distant GPCs low or negative.
func TestV100PearsonStructure(t *testing.T) {
	d := v100()
	cfg := d.Config()
	profile := func(sm int) []float64 {
		xs := make([]float64, cfg.L2Slices)
		for s := range xs {
			xs[s] = float64(d.L2HitLatencyMean(sm, s))
		}
		return xs
	}
	r := func(a, b int) float64 { return stats.MustPearson(profile(a), profile(b)) }
	if got := r(0, 6); got < 0.95 {
		t.Errorf("within-GPC correlation %.3f, want >= 0.95", got)
	}
	if got := r(0, 1); got < 0.9 {
		t.Errorf("GPC0-GPC1 (same column) correlation %.3f, want >= 0.9", got)
	}
	if got := r(0, 4); got > 0.2 {
		t.Errorf("GPC0-GPC4 (opposite edges) correlation %.3f, want <= 0.2 (paper: -0.365)", got)
	}
	mid := r(0, 2)
	far := r(0, 4)
	if mid <= far {
		t.Errorf("correlation should decay with distance: r(0,2)=%.3f <= r(0,4)=%.3f", mid, far)
	}
}

// Observation #5/#6 (A100): crossing the GPU partition adds large latency;
// far-partition accesses land near 400 cycles while near stays V100-like.
func TestA100PartitionLatency(t *testing.T) {
	a := a100()
	cfg := a.Config()
	var near, far []float64
	for _, sm := range a.SMsOfGPC(0) { // partition 0
		for s := 0; s < cfg.L2Slices; s++ {
			l := float64(a.L2HitLatencyMean(sm, s))
			if a.PartitionOfSlice(s) == 0 {
				near = append(near, l)
			} else {
				far = append(far, l)
			}
		}
	}
	nearMean, farMean := stats.Mean(near), stats.Mean(far)
	if nearMean < 195 || nearMean > 235 {
		t.Errorf("A100 near-partition mean %.1f outside [195, 235]", nearMean)
	}
	if farMean < 360 || farMean > 440 {
		t.Errorf("A100 far-partition mean %.1f outside [360, 440] (paper ~400)", farMean)
	}
	if farMean/nearMean < 1.5 {
		t.Errorf("far/near ratio %.2f too small", farMean/nearMean)
	}
}

// Observation #6 (H100): partition-local caching makes hit latency
// uniform across GPCs for the same data.
func TestH100LocalCachingUniformHits(t *testing.T) {
	h := h100()
	cfg := h.Config()
	// Average hit latency per GPC over all (locally cached) slices.
	means := make([]float64, cfg.GPCs)
	for g := 0; g < cfg.GPCs; g++ {
		var xs []float64
		for _, sm := range h.SMsOfGPC(g) {
			for s := 0; s < cfg.L2Slices; s++ {
				xs = append(xs, float64(h.L2HitLatencyMean(sm, s)))
			}
		}
		means[g] = stats.Mean(xs)
	}
	if spread := stats.Max(means) - stats.Min(means); spread > 15 {
		t.Errorf("H100 per-GPC hit-latency spread %.1f; local caching should keep it uniform", spread)
	}
	// No hit is ever served from the remote partition.
	for _, sm := range []int{0, 1, 4, 5} {
		for s := 0; s < cfg.L2Slices; s++ {
			serving := h.effectiveHitSlice(sm, s)
			if h.PartitionOfSlice(serving) != h.PartitionOfSM(sm) {
				t.Fatalf("SM%d slice %d served remotely by %d", sm, s, serving)
			}
		}
	}
}

func TestA100NoLocalCaching(t *testing.T) {
	a := a100()
	for s := 0; s < a.Config().L2Slices; s++ {
		if got := a.effectiveHitSlice(0, s); got != s {
			t.Fatalf("A100 should not remap slices: %d -> %d", s, got)
		}
	}
}

// Miss penalty: constant on V100/A100, home-partition-dependent on H100
// (Fig. 8 d, e, f).
func TestMissPenalty(t *testing.T) {
	v, a, h := v100(), a100(), h100()
	for mp := 1; mp < v.Config().MPs; mp++ {
		if v.L2MissPenaltyMean(0, mp) != v.L2MissPenaltyMean(0, 0) {
			t.Error("V100 miss penalty should be constant")
		}
	}
	for mp := 1; mp < a.Config().MPs; mp++ {
		if a.L2MissPenaltyMean(0, mp) != a.L2MissPenaltyMean(0, 0) {
			t.Error("A100 miss penalty should be constant")
		}
	}
	local := h.L2MissPenaltyMean(0, 0)  // SM0 partition 0, MP0 partition 0
	remote := h.L2MissPenaltyMean(0, 9) // MP9 partition 1
	if remote <= local {
		t.Errorf("H100 remote-home miss %.0f should exceed local %.0f", remote, local)
	}
	if remote-local < 100 {
		t.Errorf("H100 home-cross penalty %.0f too small", remote-local)
	}
}

// H100 SM-to-SM distributed-shared-memory latency (Fig. 7b): lowest
// within CPC0 (~196 cycles), highest within CPC2 (~213).
func TestH100SMToSMLatency(t *testing.T) {
	h := h100()
	lat := func(srcCPC, dstCPC int) float64 {
		src := h.SMsOfCPC(0, srcCPC)[0]
		dst := h.SMsOfCPC(0, dstCPC)[1]
		m, err := h.SMToSMLatencyMean(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return float64(m)
	}
	l00 := lat(0, 0)
	l22 := lat(2, 2)
	if l00 < 190 || l00 > 202 {
		t.Errorf("CPC0-CPC0 latency %.1f outside [190, 202] (paper 196)", l00)
	}
	if l22 < 207 || l22 > 219 {
		t.Errorf("CPC2-CPC2 latency %.1f outside [207, 219] (paper ~213)", l22)
	}
	if lat(0, 2) <= l00 || lat(0, 2) >= l22 {
		t.Errorf("CPC0-CPC2 latency %.1f should lie between %.1f and %.1f", lat(0, 2), l00, l22)
	}
	// Symmetry.
	if lat(1, 2) != lat(2, 1) {
		t.Error("SM-to-SM latency should be symmetric in CPC pairs")
	}
}

func TestSMToSMErrors(t *testing.T) {
	if _, err := v100().SMToSMLatencyMean(0, 6); err == nil {
		t.Error("V100 has no SM-to-SM network; want error")
	}
	h := h100()
	if _, err := h.SMToSMLatencyMean(0, 1); err == nil {
		t.Error("cross-GPC SM-to-SM should error")
	}
	if _, err := h.SMToSMLatency(0, 1, 0); err == nil {
		t.Error("cross-GPC SM-to-SM sample should error")
	}
}

// --- Noise and determinism ----------------------------------------------------

func TestLatencyDeterministic(t *testing.T) {
	d1, d2 := v100(), v100()
	for i := uint64(0); i < 10; i++ {
		if d1.L2HitLatency(3, 7, i) != d2.L2HitLatency(3, 7, i) {
			t.Fatal("same config + seed must give identical samples")
		}
	}
	if d1.L2HitLatency(3, 7, 0) == d1.L2HitLatency(3, 7, 1) {
		t.Error("different iterations should (generically) differ")
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	d := v100()
	mean := float64(d.L2HitLatencyMean(10, 5))
	var sum float64
	const n = 4000
	for i := uint64(0); i < n; i++ {
		sum += float64(d.L2HitLatency(10, 5, i))
	}
	got := sum / n
	if diff := got - mean; diff > 0.5 || diff < -0.5 {
		t.Errorf("sampled mean %.2f deviates from model mean %.2f", got, mean)
	}
}

func TestSeedChangesNoiseNotStructure(t *testing.T) {
	cfg := V100()
	cfg.Seed = 12345
	d := MustNew(cfg)
	ref := v100()
	// Structure (floorplan geometry term) is seed-independent even though
	// slice extras differ: the per-GPC mean spread stays small.
	var a, b []float64
	for s := 0; s < cfg.L2Slices; s++ {
		a = append(a, float64(ref.L2HitLatencyMean(0, s)))
		b = append(b, float64(d.L2HitLatencyMean(0, s)))
	}
	if stats.Mean(a) == stats.Mean(b) {
		t.Log("means equal by coincidence; acceptable")
	}
	if diff := stats.Mean(a) - stats.Mean(b); diff > 10 || diff < -10 {
		t.Errorf("seed change moved mean latency by %.1f cycles; should only perturb extras", diff)
	}
}

// --- Address hashing -----------------------------------------------------------

func TestHomeSliceInRange(t *testing.T) {
	f := func(addr uint64) bool {
		d := v100()
		s := d.HomeSlice(addr)
		return s >= 0 && s < d.Config().L2Slices
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHomeSliceLineGranularity(t *testing.T) {
	d := v100()
	base := uint64(0x10000)
	for off := uint64(0); off < 128; off++ {
		if d.HomeSlice(base+off) != d.HomeSlice(base) {
			t.Fatalf("addresses within one line must hash identically (offset %d)", off)
		}
	}
	// Adjacent lines generally differ (hashing, not striping).
	same := 0
	for i := uint64(0); i < 64; i++ {
		if d.HomeSlice(base+i*128) == d.HomeSlice(base) {
			same++
		}
	}
	if same > 16 {
		t.Errorf("adjacent lines hash to the same slice %d/64 times; hash looks degenerate", same)
	}
}

func TestHashLoadBalance(t *testing.T) {
	// Observation #12: address hashing load-balances traffic across slices.
	d := v100()
	cfg := d.Config()
	counts := make([]float64, cfg.L2Slices)
	const lines = 64 * 1024
	for i := 0; i < lines; i++ {
		counts[d.HomeSlice(uint64(i)*128)]++
	}
	mean := stats.Mean(counts)
	for s, c := range counts {
		if c < mean*0.85 || c > mean*1.15 {
			t.Errorf("slice %d gets %.0f lines, mean %.0f; imbalance > 15%%", s, c, mean)
		}
	}
}

func TestServingSliceLocalOnH100(t *testing.T) {
	h := h100()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		addr := rng.Uint64() % (1 << 30)
		for _, sm := range []int{0, 1, 4, 5} {
			s := h.ServingSlice(sm, addr)
			if h.PartitionOfSlice(s) != h.PartitionOfSM(sm) {
				t.Fatalf("H100 hit for SM%d served by remote slice %d", sm, s)
			}
		}
	}
}

func TestServingSliceIdentityElsewhere(t *testing.T) {
	v := v100()
	for i := uint64(0); i < 100; i++ {
		addr := i * 4096
		if v.ServingSlice(0, addr) != v.HomeSlice(addr) {
			t.Fatal("V100 serving slice must equal home slice")
		}
	}
}

func TestAddressForSlice(t *testing.T) {
	d := v100()
	for s := 0; s < d.Config().L2Slices; s++ {
		addr, ok := d.AddressForSlice(s, 0, 4096)
		if !ok {
			t.Fatalf("no address found for slice %d", s)
		}
		if d.HomeSlice(addr) != s {
			t.Fatalf("AddressForSlice(%d) returned addr for slice %d", s, d.HomeSlice(addr))
		}
	}
	if _, ok := d.AddressForSlice(0, 0, 0); ok {
		t.Error("zero limit should find nothing")
	}
}

func TestHomeMPMatchesHomeSlice(t *testing.T) {
	d := a100()
	for i := uint64(0); i < 100; i++ {
		addr := i * 999
		if d.HomeMP(addr) != d.MPOfSlice(d.HomeSlice(addr)) {
			t.Fatal("HomeMP inconsistent with HomeSlice")
		}
	}
}

func almostEqual(a, b, eps float64) bool {
	d := a - b
	return d <= eps && d >= -eps
}

// Property: hit latency is always within a sane band above the base RTT,
// for every generation, SM and slice.
func TestLatencyPropertyBounds(t *testing.T) {
	for _, d := range []*Device{v100(), a100(), h100()} {
		cfg := d.Config()
		for sm := 0; sm < cfg.SMs(); sm += 5 {
			for s := 0; s < cfg.L2Slices; s += 3 {
				lat := d.L2HitLatencyMean(sm, s)
				if lat < cfg.Cal.BaseRTT || lat > cfg.Cal.BaseRTT+500 {
					t.Fatalf("%s SM%d->slice%d latency %.0f outside sane band", cfg.Name, sm, s, lat)
				}
			}
		}
	}
}

// Property: ServingSliceID is idempotent and stays within the requester's
// partition exactly when local caching is on.
func TestServingSliceIdempotent(t *testing.T) {
	for _, d := range []*Device{v100(), h100()} {
		cfg := d.Config()
		for sm := 0; sm < cfg.SMs(); sm += 11 {
			for s := 0; s < cfg.L2Slices; s++ {
				once := d.ServingSliceID(sm, s)
				if twice := d.ServingSliceID(sm, once); twice != once {
					t.Fatalf("%s: serving slice not idempotent: %d -> %d -> %d", cfg.Name, s, once, twice)
				}
			}
		}
	}
}
