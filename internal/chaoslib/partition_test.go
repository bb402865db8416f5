package chaoslib

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

func gridCoords(n int) [][]float64 {
	xs := make([]float64, n*n)
	ys := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			xs[i*n+j] = float64(j)
			ys[i*n+j] = float64(i)
		}
	}
	return [][]float64{xs, ys}
}

// partSizes tallies how many points each of nparts parts received.
func partSizes(assign []int, nparts int) []int {
	sizes := make([]int, nparts)
	for _, p := range assign {
		sizes[p]++
	}
	return sizes
}

func TestRCBBalance(t *testing.T) {
	coords := gridCoords(16) // 256 points
	for _, nparts := range []int{2, 3, 4, 7, 8} {
		assign, err := RCB(coords, nparts)
		if err != nil {
			t.Fatalf("nparts=%d: %v", nparts, err)
		}
		sizes := partSizes(assign, nparts)
		lo, hi := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo > nparts {
			t.Errorf("nparts=%d: imbalanced sizes %v", nparts, sizes)
		}
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != 256 {
			t.Errorf("nparts=%d: sizes sum to %d", nparts, total)
		}
	}
}

func TestRCBSpatialLocality(t *testing.T) {
	// A 4-way RCB of a square grid must produce parts with small
	// bounding boxes (quadrant-like), not interleaved stripes: check
	// each part's bounding box area is at most half the domain.
	const n = 16
	coords := gridCoords(n)
	assign, err := RCB(coords, 4)
	if err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 4; part++ {
		minX, maxX := float64(n), -1.0
		minY, maxY := float64(n), -1.0
		for i, p := range assign {
			if p != part {
				continue
			}
			x, y := coords[0][i], coords[1][i]
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		area := (maxX - minX + 1) * (maxY - minY + 1)
		if area > float64(n*n)/2 {
			t.Errorf("part %d bounding box area %.0f exceeds half the domain", part, area)
		}
	}
}

func TestRCBErrors(t *testing.T) {
	if _, err := RCB(nil, 2); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, err := RCB([][]float64{{1, 2}, {1}}, 2); err == nil {
		t.Error("ragged coordinates accepted")
	}
	if _, err := RCB([][]float64{{1, 2}}, 0); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := RCB([][]float64{{1, 2}}, 3); err == nil {
		t.Error("more parts than points accepted")
	}
}

// TestPartitionThenRemapReducesGhosts is the partitioner's purpose:
// after RCB + Remap, an edge sweep over a grid graph needs fewer ghost
// elements than under a scattered distribution.
func TestPartitionThenRemapReducesGhosts(t *testing.T) {
	const n = 16 // 256 nodes on a grid
	const nprocs = 4
	coords := gridCoords(n)
	assign, err := RCB(coords, nprocs)
	if err != nil {
		t.Fatal(err)
	}

	// Grid-graph edges in node numbering.
	var ends []int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j+1 < n {
				ends = append(ends, int32(i*n+j), int32(i*n+j+1))
			}
			if i+1 < n {
				ends = append(ends, int32(i*n+j), int32((i+1)*n+j))
			}
		}
	}

	var scatteredGhosts, partitionedGhosts int64
	mpsim.RunSPMD(mpsim.Ideal(), nprocs, func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		// Scattered: deal nodes round-robin.
		var mine []int32
		for g := p.Rank(); g < n*n; g += nprocs {
			mine = append(mine, int32(g))
		}
		scattered, err := NewArray(ctx, mine)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		scattered.FillGlobal(func(g int32) float64 { return float64(g) })

		// Each process sweeps the edges whose first endpoint it owns
		// under the partitioned distribution (owner-computes).
		var myEnds []int32
		for e := 0; e < len(ends); e += 2 {
			if assign[ends[e]] == p.Rank() {
				myEnds = append(myEnds, ends[e], ends[e+1])
			}
		}
		lzScattered := Localize(ctx, scattered, myEnds)
		remapped, err := Remap(ctx, scattered, PartIndices(assign, p.Rank()))
		if err != nil {
			t.Errorf("Remap: %v", err)
			return
		}
		lzPartitioned := Localize(ctx, remapped, myEnds)

		sg := p.Comm().AllreduceInt64(mpsim.OpSum, int64(lzScattered.NGhost()))
		pg := p.Comm().AllreduceInt64(mpsim.OpSum, int64(lzPartitioned.NGhost()))
		if p.Rank() == 0 {
			scatteredGhosts, partitionedGhosts = sg, pg
		}
		// And the remap preserved the data.
		for k, g := range remapped.Indices() {
			if remapped.GetLocal(k) != float64(g) {
				t.Errorf("remapped node %d holds %g", g, remapped.GetLocal(k))
			}
		}
	})
	if partitionedGhosts*2 >= scatteredGhosts {
		t.Errorf("RCB+Remap ghosts = %d, scattered = %d; expected better than 2x reduction",
			partitionedGhosts, scatteredGhosts)
	}
}

// Property: RCB always partitions (every point gets exactly one part
// in range, sizes balanced within nparts points).
func TestQuickRCBPartition(t *testing.T) {
	f := func(seed int64, n8, p8 uint8) bool {
		n := int(n8%60) + 2
		nparts := int(p8%4) + 1
		if nparts > n {
			nparts = n
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		assign, err := RCB([][]float64{xs, ys}, nparts)
		if err != nil {
			return false
		}
		sizes := partSizes(assign, nparts)
		total, lo, hi := 0, n, 0
		for _, s := range sizes {
			total += s
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		return total == n && hi-lo <= nparts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
