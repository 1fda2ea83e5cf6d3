// Package floorplan models the approximate logical floorplan of a GPU die
// (the paper's Fig. 4): the 2-D placement of GPCs (and, on H100, CPCs),
// the memory partitions with their L2 slices, and the per-partition
// crossbar hub. On-chip latency in this reproduction is derived from these
// positions, which is exactly the mechanism the paper identifies behind
// Observations #1-#5 ("the non-uniform L2 latency is determined by the
// physical location of the SM within the GPC and the L2 slice within the
// memory partition").
//
// Distances are expressed in abstract grid units ("gu"); the gpu package
// converts them to cycles with a wire-delay coefficient.
package floorplan

import (
	"fmt"
	"sort"
	"strings"

	"gpunoc/internal/units"
)

// Point is a 2-D die coordinate in grid units.
type Point struct {
	X, Y float64
}

// Manhattan returns the Manhattan (L1) distance between a and b. On-chip
// wires are routed rectilinearly, so L1 distance is the natural wire-length
// proxy.
func Manhattan(a, b Point) units.GridUnits {
	return units.GridUnits(abs(a.X-b.X) + abs(a.Y-b.Y))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Spec describes the hierarchy geometry of one GPU generation.
type Spec struct {
	Name string

	// Partitions is the number of GPU "partitions" (1 on V100, 2 on
	// A100/H100). Partitions are placed side by side along the x axis.
	Partitions int

	// GPCs is the total number of GPCs, split evenly across partitions.
	GPCs int

	// GPCRows controls how a partition's GPCs are stacked: with 2 rows
	// (V100) consecutive GPC pairs share a column (explaining the paper's
	// GPC0&1 / GPC4&5 correlation pairs); with 1 row every GPC has its own
	// column (A100/H100, where neighbour-GPC similarity is reduced).
	GPCRows int

	// CPCsPerGPC is the number of Compute Processing Clusters per GPC
	// (H100 only; 0 disables the level). CPCs are offset along x within
	// their GPC so that different CPCs see measurably different L2-slice
	// latency profiles (Fig. 6c).
	CPCsPerGPC int

	// MPs is the total number of memory partitions, split evenly across
	// GPU partitions and spread across each partition's width.
	MPs int

	// ColPitch is the horizontal spacing between GPC columns in gu.
	ColPitch float64

	// MPPitch is the horizontal spacing between memory partitions in gu.
	// The MP band (L2 slices plus PHYs) extends along the die periphery
	// and is typically wider than the GPC array, which sits centered
	// within it - matching die photos where HBM PHYs flank the compute
	// clusters. When zero it defaults to ColPitch.
	MPPitch float64

	// PartitionGap is the dead space between GPU partitions in gu.
	PartitionGap float64
}

// Plan is a realized floorplan: positions for every placement-relevant
// block plus partition membership.
type Plan struct {
	Spec Spec

	// GPCPos[g] is the centroid of GPC g. GPCPartition[g] is the GPU
	// partition that hosts it.
	GPCPos       []Point
	GPCPartition []int

	// CPCPos[g][c] is the centroid of CPC c within GPC g (empty when the
	// generation has no CPC level).
	CPCPos [][]Point

	// MPPos[m] is the centroid of memory partition m; MPPartition[m] is
	// its GPU partition.
	MPPos       []Point
	MPPartition []int

	// HubPos[p] is the crossbar-hub location of GPU partition p. The
	// latency model mixes direct wiring with hub routing (hierarchical
	// crossbar), which is what keeps far-GPC correlation moderate instead
	// of perfectly negative.
	HubPos []Point

	// Width and Height are the die extents in gu.
	Width, Height float64
}

// Build lays out a floorplan from spec. It validates divisibility of GPCs
// and MPs across partitions and returns a descriptive error otherwise.
func Build(spec Spec) (*Plan, error) {
	if spec.Partitions <= 0 {
		return nil, fmt.Errorf("floorplan: %s: partitions must be positive, got %d", spec.Name, spec.Partitions)
	}
	if spec.GPCs <= 0 || spec.GPCs%spec.Partitions != 0 {
		return nil, fmt.Errorf("floorplan: %s: %d GPCs not divisible across %d partitions", spec.Name, spec.GPCs, spec.Partitions)
	}
	if spec.MPs <= 0 || spec.MPs%spec.Partitions != 0 {
		return nil, fmt.Errorf("floorplan: %s: %d MPs not divisible across %d partitions", spec.Name, spec.MPs, spec.Partitions)
	}
	if spec.GPCRows != 1 && spec.GPCRows != 2 {
		return nil, fmt.Errorf("floorplan: %s: GPCRows must be 1 or 2, got %d", spec.Name, spec.GPCRows)
	}
	gpcPerPart := spec.GPCs / spec.Partitions
	if gpcPerPart%spec.GPCRows != 0 {
		return nil, fmt.Errorf("floorplan: %s: %d GPCs per partition not divisible into %d rows", spec.Name, gpcPerPart, spec.GPCRows)
	}
	colPitch := spec.ColPitch
	if colPitch <= 0 {
		colPitch = 4
	}
	mpPitch := spec.MPPitch
	if mpPitch <= 0 {
		mpPitch = colPitch
	}
	cols := gpcPerPart / spec.GPCRows
	mpPerPart := spec.MPs / spec.Partitions
	gpcArrayWidth := float64(cols) * colPitch
	partWidth := gpcArrayWidth
	if w := float64(mpPerPart) * mpPitch; w > partWidth {
		partWidth = w
	}
	// Center the GPC array within the partition so that the MP band can
	// extend past it on both sides.
	gpcInset := (partWidth - gpcArrayWidth) / 2
	const (
		topRowY    = 1.0
		bottomRowY = 7.0
		midY       = 4.0
		height     = 8.0
	)

	p := &Plan{
		Spec:         spec,
		GPCPos:       make([]Point, spec.GPCs),
		GPCPartition: make([]int, spec.GPCs),
		MPPos:        make([]Point, spec.MPs),
		MPPartition:  make([]int, spec.MPs),
		HubPos:       make([]Point, spec.Partitions),
		Height:       height,
	}
	p.Width = float64(spec.Partitions)*partWidth + float64(spec.Partitions-1)*spec.PartitionGap

	for g := 0; g < spec.GPCs; g++ {
		part := g / gpcPerPart
		local := g % gpcPerPart
		col := local / spec.GPCRows
		row := local % spec.GPCRows
		x := float64(part)*(partWidth+spec.PartitionGap) + gpcInset + colPitch*(float64(col)+0.5)
		y := topRowY
		if spec.GPCRows == 2 && row == 1 {
			y = bottomRowY
		}
		p.GPCPos[g] = Point{X: x, Y: y}
		p.GPCPartition[g] = part
	}

	if spec.CPCsPerGPC > 0 {
		p.CPCPos = make([][]Point, spec.GPCs)
		// CPC centroids fan out along x inside the GPC; the spread is a
		// large fraction of the column pitch so that CPC identity shifts
		// the whole slice-distance profile, not just a constant.
		spread := colPitch * 0.8
		for g := range p.CPCPos {
			p.CPCPos[g] = make([]Point, spec.CPCsPerGPC)
			for c := 0; c < spec.CPCsPerGPC; c++ {
				frac := 0.0
				if spec.CPCsPerGPC > 1 {
					frac = float64(c)/float64(spec.CPCsPerGPC-1)*2 - 1 // -1..1
				}
				p.CPCPos[g][c] = Point{X: p.GPCPos[g].X + frac*spread, Y: p.GPCPos[g].Y}
			}
		}
	}

	for m := 0; m < spec.MPs; m++ {
		part := m / mpPerPart
		local := m % mpPerPart
		x := float64(part)*(partWidth+spec.PartitionGap) + partWidth*(float64(local)+0.5)/float64(mpPerPart)
		p.MPPos[m] = Point{X: x, Y: midY}
		p.MPPartition[m] = part
	}

	for part := 0; part < spec.Partitions; part++ {
		x := float64(part)*(partWidth+spec.PartitionGap) + partWidth/2
		p.HubPos[part] = Point{X: x, Y: midY}
	}
	return p, nil
}

// V100Spec is the modelled Volta floorplan: one monolithic die, 6 GPCs in
// a 2x3 arrangement (pairs share columns), 8 memory partitions along the
// central band.
func V100Spec() Spec {
	return Spec{Name: "V100", Partitions: 1, GPCs: 6, GPCRows: 2, MPs: 8, ColPitch: 2, MPPitch: 1.5}
}

// A100Spec is the modelled Ampere floorplan: two GPU partitions of 4 GPCs
// each (one row, so every GPC has a distinct column), 10 memory partitions.
func A100Spec() Spec {
	return Spec{Name: "A100", Partitions: 2, GPCs: 8, GPCRows: 1, MPs: 10, ColPitch: 2, MPPitch: 2.4, PartitionGap: 4}
}

// H100Spec is the modelled Hopper floorplan: two GPU partitions of 4 GPCs,
// 3 CPCs per GPC, 10 memory partitions.
func H100Spec() Spec {
	return Spec{Name: "H100", Partitions: 2, GPCs: 8, GPCRows: 1, CPCsPerGPC: 3, MPs: 10, ColPitch: 2, MPPitch: 2.4, PartitionGap: 4}
}

// GPCDistanceToMP returns the Manhattan distance from GPC g (or, when the
// plan has CPCs and cpc >= 0, from CPC cpc of GPC g) to memory partition m,
// ignoring hub routing. Pass cpc = -1 to use the GPC centroid.
func (p *Plan) GPCDistanceToMP(g, cpc, m int) units.GridUnits {
	src := p.GPCPos[g]
	if cpc >= 0 && len(p.CPCPos) > 0 {
		src = p.CPCPos[g][cpc]
	}
	return Manhattan(src, p.MPPos[m])
}

// CrossesPartition reports whether traffic from GPC g to MP m crosses the
// central inter-partition interconnect.
func (p *Plan) CrossesPartition(g, m int) bool {
	return p.GPCPartition[g] != p.MPPartition[m]
}

// Render draws a coarse ASCII floorplan (the reproduction's Fig. 4): GPC
// boxes on their rows, the MP band in the middle, hubs marked with '+'.
func (p *Plan) Render() string {
	const cell = 0.5 // gu per character column
	widthCh := int(p.Width/cell) + 4
	rows := map[float64]string{}
	place := func(y float64, x float64, label string) {
		row := rows[y]
		col := int(x / cell)
		if col < 0 {
			col = 0
		}
		for len(row) < col+len(label) {
			row += " "
		}
		row = row[:col] + label + row[col+len(label):]
		rows[y] = row
	}
	for g, pos := range p.GPCPos {
		place(pos.Y, pos.X, fmt.Sprintf("G%d", g))
	}
	for m, pos := range p.MPPos {
		place(pos.Y+0.5, pos.X, fmt.Sprintf("M%d", m))
	}
	for _, pos := range p.HubPos {
		place(pos.Y, pos.X, "+")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s die, %.0fx%.0f gu\n", p.Spec.Name, p.Width, p.Height)
	b.WriteString(strings.Repeat("-", widthCh) + "\n")
	for _, y := range sortedKeys(rows) {
		b.WriteString(rows[y] + "\n")
	}
	b.WriteString(strings.Repeat("-", widthCh) + "\n")
	return b.String()
}

func sortedKeys(m map[float64]string) []float64 {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}
