// Package workload generates synthetic memory-address traces with the
// access structure of the Rodinia kernels the paper profiles in Fig. 16 -
// bfs (irregular frontier expansion) and gaussian (a shrinking dense
// elimination window). Feeding a trace through the device's address hash
// yields the per-L2-slice traffic matrix over time, demonstrating
// Observation #12: however the footprint and volume evolve, the hash
// keeps slice traffic balanced.
package workload

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/gpu"
	"gpunoc/internal/stats"
)

// Generator produces a time-stepped address stream.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Steps is the number of timesteps.
	Steps() int
	// Step returns the byte addresses accessed during timestep t.
	Step(t int) []uint64
}

// BFS models breadth-first search over a random graph: each timestep
// visits the current frontier's adjacency lists (scattered, irregular
// addresses) and the visited bitmap. Frontier size grows explosively and
// then collapses, so traffic volume swings while the footprint stays
// irregular.
type BFS struct {
	name     string
	frontier [][]int // node ids per step
	adjBase  uint64
	adjLen   []int // adjacency length per node
}

// NewBFS builds a BFS trace over a random graph of n nodes with average
// degree deg, starting from node 0.
func NewBFS(n, deg int, seed int64) (*BFS, error) {
	if n <= 1 || deg <= 0 {
		return nil, fmt.Errorf("workload: bfs needs n > 1 and positive degree")
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		d := 1 + rng.Intn(2*deg)
		adj[u] = make([]int, d)
		for i := range adj[u] {
			adj[u][i] = rng.Intn(n)
		}
	}
	// Level-synchronous BFS to record per-step frontiers.
	visited := make([]bool, n)
	visited[0] = true
	frontier := []int{0}
	var levels [][]int
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	adjLen := make([]int, n)
	for u := range adj {
		adjLen[u] = len(adj[u])
	}
	return &BFS{name: "bfs", frontier: levels, adjBase: 0x1000_0000, adjLen: adjLen}, nil
}

// Name implements Generator.
func (b *BFS) Name() string { return b.name }

// Steps implements Generator.
func (b *BFS) Steps() int { return len(b.frontier) }

// Step implements Generator: the frontier's adjacency lists (CSR rows)
// plus the visited bitmap, emitted at memory-transaction granularity as
// the warps' coalescers would issue them: one transaction per 128-byte
// adjacency line and per-warp-deduplicated bitmap sector touches.
func (b *BFS) Step(t int) []uint64 {
	if t < 0 || t >= len(b.frontier) {
		return nil
	}
	var addrs []uint64
	front := b.frontier[t]
	// The visited bitmap is tiny and hot: after a warp's first touch the
	// sector sits in the L1, so only first touches per step reach the L2
	// counters the figure is built from.
	bitmapSeen := map[uint64]bool{}
	for _, u := range front {
		// Adjacency row: one transaction per 128-byte line of edges.
		row := b.adjBase + uint64(u)*64
		lines := (b.adjLen[u]*4 + 127) / 128
		for l := 0; l < lines; l++ {
			addrs = append(addrs, row+uint64(l)*128)
		}
		sector := (0x2000_0000 + uint64(u)/8) &^ 31
		if !bitmapSeen[sector] {
			bitmapSeen[sector] = true
			addrs = append(addrs, sector)
		}
	}
	return addrs
}

// Gaussian models Gaussian elimination on an n x n matrix of 4-byte
// elements: timestep k reads and updates the trailing (n-k) x (n-k)
// submatrix, so the footprint is dense row-major but shrinks every step -
// the declining traffic volume visible in the paper's Fig. 16(b). The
// trace is emitted at memory-transaction granularity (one address per
// 128-byte line touched), as an L2 traffic counter would see it.
type Gaussian struct {
	n    int
	base uint64
	// stride keeps only every stride-th transaction, to bound trace size.
	stride int
}

// lineElems is how many 4-byte matrix elements share one 128-byte line.
const lineElems = 32

// NewGaussian builds an n x n elimination trace, sampling every stride-th
// transaction.
func NewGaussian(n, stride int) (*Gaussian, error) {
	if n <= 1 || stride <= 0 {
		return nil, fmt.Errorf("workload: gaussian needs n > 1 and positive stride")
	}
	return &Gaussian{n: n, base: 0x4000_0000, stride: stride}, nil
}

// Name implements Generator.
func (g *Gaussian) Name() string { return "gaussian" }

// Steps implements Generator.
func (g *Gaussian) Steps() int { return g.n - 1 }

// Step implements Generator.
func (g *Gaussian) Step(t int) []uint64 {
	if t < 0 || t >= g.n-1 {
		return nil
	}
	var addrs []uint64
	k := t
	count := 0
	for i := k + 1; i < g.n; i++ {
		for j := k; j < g.n; j += lineElems {
			if count%g.stride == 0 {
				addrs = append(addrs, g.base+(uint64(i)*uint64(g.n)+uint64(j))*4)
			}
			count++
		}
	}
	return addrs
}

// TrafficMatrix runs a trace through the device's address-to-slice hash
// and returns matrix[t][slice] = accesses of slice during timestep t -
// the data behind the Fig. 16 heat maps.
func TrafficMatrix(dev *gpu.Device, g Generator) ([][]float64, error) {
	if g.Steps() <= 0 {
		return nil, fmt.Errorf("workload: %s has no steps", g.Name())
	}
	slices := dev.Config().L2Slices
	matrix := make([][]float64, g.Steps())
	for t := range matrix {
		row := make([]float64, slices)
		for _, addr := range g.Step(t) {
			row[dev.HomeSlice(addr)]++
		}
		matrix[t] = row
	}
	return matrix, nil
}

// StepStats summarizes one timestep's slice distribution.
type StepStats struct {
	Total float64
	// CV is the coefficient of variation of per-slice traffic: low CV
	// means the hash load-balanced the step (Observation #12).
	CV float64
}

// AnalyzeBalance computes per-step totals and imbalance for a traffic
// matrix, skipping steps whose volume is below minTotal (tiny frontiers
// are statistically meaningless).
func AnalyzeBalance(matrix [][]float64, minTotal float64) []StepStats {
	out := make([]StepStats, 0, len(matrix))
	for _, row := range matrix {
		total := stats.Sum(row)
		s := StepStats{Total: total}
		if total >= minTotal && total > 0 {
			s.CV = stats.StdDev(row) / stats.Mean(row)
		}
		out = append(out, s)
	}
	return out
}
