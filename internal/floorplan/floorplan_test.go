package floorplan

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// build is Build for the canonical specs, failing the test on error.
func build(t *testing.T, spec Spec) *Plan {
	t.Helper()
	p, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-1, -1}, Point{1, 1}, 4},
		{Point{5, 2}, Point{1, 2}, 4},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); float64(got) != c.want {
			t.Errorf("Manhattan(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Manhattan distance is a metric (symmetric, non-negative,
// triangle inequality, identity of indiscernibles).
func TestManhattanPropertyMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 { return rng.Float64()*200 - 100 }
		a := Point{coord(), coord()}
		b := Point{coord(), coord()}
		c := Point{coord(), coord()}
		dab := Manhattan(a, b)
		if dab < 0 || dab != Manhattan(b, a) {
			return false
		}
		if Manhattan(a, a) != 0 {
			return false
		}
		return Manhattan(a, c) <= dab+Manhattan(b, c)+1e-9
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(7)), MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildV100Layout(t *testing.T) {
	p := build(t, V100Spec())
	if len(p.GPCPos) != 6 || len(p.MPPos) != 8 || len(p.HubPos) != 1 {
		t.Fatalf("unexpected counts: %d GPCs, %d MPs, %d hubs", len(p.GPCPos), len(p.MPPos), len(p.HubPos))
	}
	// Consecutive GPC pairs share a column (GPCRows = 2).
	for g := 0; g < 6; g += 2 {
		if p.GPCPos[g].X != p.GPCPos[g+1].X {
			t.Errorf("GPC%d and GPC%d should share a column: %v vs %v", g, g+1, p.GPCPos[g], p.GPCPos[g+1])
		}
		if p.GPCPos[g].Y == p.GPCPos[g+1].Y {
			t.Errorf("GPC%d and GPC%d should be on different rows", g, g+1)
		}
	}
	// All in one partition.
	for g, part := range p.GPCPartition {
		if part != 0 {
			t.Errorf("GPC%d partition = %d, want 0", g, part)
		}
	}
	// MPs are strictly ordered along x within the die.
	for m := 1; m < len(p.MPPos); m++ {
		if p.MPPos[m].X <= p.MPPos[m-1].X {
			t.Errorf("MP%d.X = %v not > MP%d.X = %v", m, p.MPPos[m].X, m-1, p.MPPos[m-1].X)
		}
	}
	if p.CPCPos != nil {
		t.Error("V100 should not have a CPC level")
	}
}

func TestBuildA100PartitionSplit(t *testing.T) {
	p := build(t, A100Spec())
	for g := 0; g < 4; g++ {
		if p.GPCPartition[g] != 0 {
			t.Errorf("GPC%d partition = %d, want 0", g, p.GPCPartition[g])
		}
	}
	for g := 4; g < 8; g++ {
		if p.GPCPartition[g] != 1 {
			t.Errorf("GPC%d partition = %d, want 1", g, p.GPCPartition[g])
		}
	}
	for m := 0; m < 5; m++ {
		if p.MPPartition[m] != 0 {
			t.Errorf("MP%d partition = %d, want 0", m, p.MPPartition[m])
		}
	}
	for m := 5; m < 10; m++ {
		if p.MPPartition[m] != 1 {
			t.Errorf("MP%d partition = %d, want 1", m, p.MPPartition[m])
		}
	}
	// Every GPC has its own column on A100 (GPCRows = 1).
	seen := map[float64]bool{}
	for _, pos := range p.GPCPos {
		if seen[pos.X] {
			t.Errorf("duplicate GPC column at x=%v", pos.X)
		}
		seen[pos.X] = true
	}
	// Partition 1 blocks lie strictly to the right of partition 0 blocks.
	maxLeft, minRight := 0.0, p.Width
	for g, pos := range p.GPCPos {
		if p.GPCPartition[g] == 0 && pos.X > maxLeft {
			maxLeft = pos.X
		}
		if p.GPCPartition[g] == 1 && pos.X < minRight {
			minRight = pos.X
		}
	}
	if maxLeft >= minRight {
		t.Errorf("partitions overlap: maxLeft=%v minRight=%v", maxLeft, minRight)
	}
}

func TestBuildH100CPCs(t *testing.T) {
	p := build(t, H100Spec())
	if len(p.CPCPos) != 8 {
		t.Fatalf("CPCPos rows = %d, want 8", len(p.CPCPos))
	}
	for g, cpcs := range p.CPCPos {
		if len(cpcs) != 3 {
			t.Fatalf("GPC%d has %d CPCs, want 3", g, len(cpcs))
		}
		// CPCs spread along x and stay ordered.
		if !(cpcs[0].X < cpcs[1].X && cpcs[1].X < cpcs[2].X) {
			t.Errorf("GPC%d CPC x positions not ordered: %v", g, cpcs)
		}
		// Centered on the GPC.
		mid := (cpcs[0].X + cpcs[2].X) / 2
		if diff := mid - p.GPCPos[g].X; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("GPC%d CPCs not centered: mid=%v gpc=%v", g, mid, p.GPCPos[g].X)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	bad := []Spec{
		{Name: "p0", Partitions: 0, GPCs: 4, GPCRows: 1, MPs: 4},
		{Name: "gpcdiv", Partitions: 2, GPCs: 5, GPCRows: 1, MPs: 4},
		{Name: "mpdiv", Partitions: 2, GPCs: 4, GPCRows: 1, MPs: 5},
		{Name: "rows", Partitions: 1, GPCs: 4, GPCRows: 3, MPs: 4},
		{Name: "rowdiv", Partitions: 1, GPCs: 5, GPCRows: 2, MPs: 4},
		{Name: "gpc0", Partitions: 1, GPCs: 0, GPCRows: 1, MPs: 4},
	}
	for _, spec := range bad {
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%s) should fail", spec.Name)
		}
	}
}

func TestGPCDistanceToMPMonotoneInColumns(t *testing.T) {
	p := build(t, V100Spec())
	// From the leftmost GPC column, distance to MPs grows with MP index.
	for m := 1; m < 8; m++ {
		if p.GPCDistanceToMP(0, -1, m) < p.GPCDistanceToMP(0, -1, m-1) &&
			p.MPPos[m].X > p.GPCPos[0].X && p.MPPos[m-1].X > p.GPCPos[0].X {
			t.Errorf("distance from GPC0 should not shrink past its column: MP%d", m)
		}
	}
	// Center-column GPCs (2,3) have a narrower distance spread than edge
	// GPCs (0,1) - the mechanism behind Fig. 2's narrow GPC2 histogram.
	spread := func(g int) float64 {
		lo, hi := p.GPCDistanceToMP(g, -1, 0), p.GPCDistanceToMP(g, -1, 0)
		for m := 1; m < 8; m++ {
			d := p.GPCDistanceToMP(g, -1, m)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return float64(hi - lo)
	}
	if spread(2) >= spread(0) {
		t.Errorf("center GPC spread %v should be < edge GPC spread %v", spread(2), spread(0))
	}
}

func TestCPCDistanceDiffersWithinGPC(t *testing.T) {
	p := build(t, H100Spec())
	d0 := p.GPCDistanceToMP(0, 0, 0)
	d2 := p.GPCDistanceToMP(0, 2, 0)
	if d0 == d2 {
		t.Error("different CPCs in the same GPC should have different MP distances")
	}
}

func TestCrossesPartition(t *testing.T) {
	p := build(t, A100Spec())
	if p.CrossesPartition(0, 0) {
		t.Error("GPC0 -> MP0 is intra-partition")
	}
	if !p.CrossesPartition(0, 9) {
		t.Error("GPC0 -> MP9 should cross partitions")
	}
	v := build(t, V100Spec())
	for g := 0; g < 6; g++ {
		for m := 0; m < 8; m++ {
			if v.CrossesPartition(g, m) {
				t.Fatal("V100 has a single partition; nothing crosses")
			}
		}
	}
}

func TestRenderContainsBlocks(t *testing.T) {
	for _, spec := range []Spec{V100Spec(), A100Spec(), H100Spec()} {
		p := build(t, spec)
		out := p.Render()
		if !strings.Contains(out, "G0") {
			t.Errorf("%s render missing GPC0:\n%s", spec.Name, out)
		}
		if !strings.Contains(out, "M0") {
			t.Errorf("%s render missing MP0:\n%s", spec.Name, out)
		}
		if !strings.Contains(out, spec.Name) {
			t.Errorf("%s render missing name", spec.Name)
		}
	}
}

// Property: any valid spec builds a plan whose blocks all lie within the
// die bounds and whose partition assignments are contiguous.
func TestBuildPropertyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(2)
		rows := 1 + rng.Intn(2)
		gpcPerPart := rows * (1 + rng.Intn(4))
		spec := Spec{
			Name:       "prop",
			Partitions: parts,
			GPCs:       parts * gpcPerPart,
			GPCRows:    rows,
			MPs:        parts * (1 + rng.Intn(6)),
			ColPitch:   1 + rng.Float64()*5,
		}
		p, err := Build(spec)
		if err != nil {
			return false
		}
		for _, pos := range p.GPCPos {
			if pos.X < 0 || pos.X > p.Width || pos.Y < 0 || pos.Y > p.Height {
				return false
			}
		}
		for _, pos := range p.MPPos {
			if pos.X < 0 || pos.X > p.Width {
				return false
			}
		}
		for g := 1; g < len(p.GPCPartition); g++ {
			if p.GPCPartition[g] < p.GPCPartition[g-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
