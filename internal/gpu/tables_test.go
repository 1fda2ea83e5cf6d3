package gpu

import (
	"sync"
	"testing"
)

// tableSpecs are the configs the table oracle runs on: the three
// canonical generations and two speculative designs, one monolithic and
// one with CPCs and partition-local caching.
func tableSpecs(t *testing.T) []Config {
	t.Helper()
	cfgs := AllConfigs()
	mono := customSpec()
	mono.Name, mono.GPCs, mono.Partitions = "M50", 4, 1
	cpc := customSpec()
	cpc.Name, cpc.TPCsPerGPC, cpc.CPCsPerGPC, cpc.LocalL2Caching = "C300", 12, 4, true
	for _, spec := range []CustomSpec{mono, cpc} {
		cfg, err := Custom(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// Every table entry equals the floorplan arithmetic it replaces: the
// hit latency and serving slice of every (sm, slice) pair, and the noise
// hash prefix of every (sm, key) below L2Slices+MPs, checked against
// mix itself. HomeSlice's hoisted salt is checked the same way.
func TestTablesMatchArithmetic(t *testing.T) {
	iters := []uint64{0, 1, 0xd5a, 1 << 40, ^uint64(0)}
	for _, cfg := range tableSpecs(t) {
		tab, err := newTabled(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slices, keys, sms := cfg.L2Slices, cfg.L2Slices+cfg.MPs, cfg.SMs()
		if len(tab.hitMean) != sms*slices || len(tab.serve) != sms*slices || len(tab.noisePre) != sms*keys {
			t.Fatalf("%s: table sizes %d/%d/%d, want %d/%d/%d", cfg.Name,
				len(tab.hitMean), len(tab.serve), len(tab.noisePre), sms*slices, sms*slices, sms*keys)
		}
		if ref.hitMean != nil || ref.serve != nil || ref.noisePre != nil {
			t.Fatalf("%s: newDevice filled tables", cfg.Name)
		}
		bad := 0
		for sm := 0; sm < sms; sm++ {
			for s := 0; s < slices; s++ {
				if got, want := tab.L2HitLatencyMean(sm, s), ref.L2HitLatencyMean(sm, s); got != want {
					bad++
					t.Errorf("%s: L2HitLatencyMean(%d, %d) = %v, arithmetic %v", cfg.Name, sm, s, got, want)
				}
				if got, want := tab.ServingSliceID(sm, s), ref.ServingSliceID(sm, s); got != want {
					bad++
					t.Errorf("%s: ServingSliceID(%d, %d) = %d, arithmetic %d", cfg.Name, sm, s, got, want)
				}
			}
			for k := 0; k < keys; k++ {
				for _, iter := range iters {
					want := mix(cfg.Seed, uint64(sm)<<20|uint64(k), iter)
					if got := splitmix64(tab.noisePre[sm*keys+k] ^ iter); got != want {
						bad++
						t.Errorf("%s: noise hash (%d, %d, %#x) = %#x, mix %#x", cfg.Name, sm, k, iter, got, want)
					}
					if got, want := tab.noise(sm, k, iter), ref.noise(sm, k, iter); got != want {
						bad++
						t.Errorf("%s: noise(%d, %d, %#x) = %v, arithmetic %v", cfg.Name, sm, k, iter, got, want)
					}
				}
			}
			if bad > 10 {
				t.Fatalf("%s: stopping after %d mismatches", cfg.Name, bad)
			}
		}
		for line := uint64(0); line < 4096; line++ {
			addr := line*uint64(cfg.CacheLineBytes) + line%uint64(cfg.CacheLineBytes)
			want := int(mix(cfg.Seed, 0xadd2, line) % uint64(slices))
			if got := tab.HomeSlice(addr); got != want {
				t.Fatalf("%s: HomeSlice(%#x) = %d, mix says %d", cfg.Name, addr, got, want)
			}
		}
	}
}

// Queries outside the tables take the arithmetic, which answers them
// exactly as before: an SM id as a noise key (SMToSMLatency's, which
// reaches 143 on H100, above L2Slices+MPs = 90), and out-of-range SMs.
func TestTablesFallBackOutsideRange(t *testing.T) {
	cfg := H100()
	tab, err := newTabled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := cfg.L2Slices + cfg.MPs
	for _, q := range []struct{ sm, key int }{{0, keys}, {5, 143}, {cfg.SMs(), 0}, {-1, 3}, {3, -1}} {
		want := cfg.Cal.NoiseSigma.Scale(gaussian(mix(cfg.Seed, uint64(q.sm)<<20|uint64(q.key), 7)))
		if got := tab.noise(q.sm, q.key, 7); got != want {
			t.Errorf("noise(%d, %d, 7) = %v, mix gives %v", q.sm, q.key, got, want)
		}
	}
	if tab.pair(cfg.SMs(), 0) != -1 || tab.pair(0, cfg.L2Slices) != -1 || tab.pair(-1, 0) != -1 {
		t.Error("pair must refuse indices outside the tables")
	}
}

// SMToSMLatency's noise key is the destination SM id, which on H100
// runs past the noise table's key range. Every same-GPC pair must draw
// exactly mix's noise; indexing the table with a key of 90 or more reads
// another (sm, key)'s entry, or runs off its end.
func TestSMToSMLatencyNoiseUsesFullKey(t *testing.T) {
	d := MustNew(H100())
	cfg := d.Config()
	above := 0
	for gpc := 0; gpc < cfg.GPCs; gpc++ {
		for _, src := range d.SMsOfGPC(gpc) {
			for _, dst := range d.SMsOfGPC(gpc) {
				if dst >= cfg.L2Slices+cfg.MPs {
					above++
				}
				mean, err := d.SMToSMLatencyMean(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				for _, iter := range []uint64{0, 1, 1 << 33} {
					want := mean + cfg.Cal.NoiseSigma.Scale(gaussian(mix(cfg.Seed, uint64(src)<<20|uint64(dst), iter^0xd5a)))
					got, err := d.SMToSMLatency(src, dst, iter)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("SMToSMLatency(%d, %d, %d) = %v, want %v", src, dst, iter, got, want)
					}
				}
			}
		}
	}
	if above == 0 {
		t.Fatal("no pair exercised a destination above the noise table's key range")
	}
}

// New shares one Device per canonical generation across the process; a
// config that differs in any field, even only its name, gets its own
// Device on the arithmetic path. Concurrent first calls are race-free.
func TestNewSharesCanonicalDevices(t *testing.T) {
	var wg sync.WaitGroup
	devs := make([][3]*Device, 8)
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j, cfg := range AllConfigs() {
				d, err := New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				devs[i][j] = d
				_ = d.L2HitLatency(3, 7, uint64(i))
			}
		}(i)
	}
	wg.Wait()
	for i := range devs {
		if devs[i] != devs[0] {
			t.Fatalf("New returned different canonical devices: %v vs %v", devs[i], devs[0])
		}
	}
	for j, d := range devs[0] {
		if d.hitMean == nil {
			t.Errorf("canonical %s has no tables", d.Config().Name)
		}
		if d.Config() != AllConfigs()[j] {
			t.Errorf("canonical device %d has config %s", j, d.Config().Name)
		}
	}
	renamed := H100()
	renamed.Name = "H100-arith"
	r1, r2 := MustNew(renamed), MustNew(renamed)
	if r1 == devs[0][2] || r1 == r2 {
		t.Error("a non-canonical config must build its own Device")
	}
	if r1.hitMean != nil {
		t.Error("a non-canonical Device must not build tables")
	}
}
