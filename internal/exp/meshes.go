package exp

import (
	"math/rand"

	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/gidx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
)

// The coupled-mesh workload of Sections 5.1 and 5.2: a 256x256
// structured mesh distributed by Multiblock Parti and an unstructured
// mesh of 65536 nodes distributed by CHAOS, connected by the identity
// mapping through a node-numbering permutation.  The unstructured mesh
// is a permuted grid graph, so its edge count and locality resemble
// the CFD meshes the paper motivates.

const (
	// regN is the structured mesh extent (256x256 doubles).
	regN = 256
	// irrPoints is the unstructured node count.
	irrPoints = regN * regN
)

// meshPerm is the fixed node-numbering permutation: grid cell k of the
// structured mesh corresponds to unstructured node meshPerm[k].
func meshPerm() []int32 {
	rng := rand.New(rand.NewSource(19970401))
	p := rng.Perm(irrPoints)
	out := make([]int32, irrPoints)
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

// meshEdges returns the unstructured mesh's edge endpoint arrays in
// node numbering: the right- and down-neighbour edges of the permuted
// grid (2*256*255 = 130560 edges).
func meshEdges(perm []int32) (ia, ib []int32) {
	for i := 0; i < regN; i++ {
		for j := 0; j < regN; j++ {
			n := perm[i*regN+j]
			if j+1 < regN {
				ia = append(ia, n)
				ib = append(ib, perm[i*regN+j+1])
			}
			if i+1 < regN {
				ia = append(ia, n)
				ib = append(ib, perm[(i+1)*regN+j])
			}
		}
	}
	return ia, ib
}

// irregOwned deals the unstructured nodes to nprocs processes: process
// r owns the nodes of grid cells [r*n/P, (r+1)*n/P), i.e. a spatially
// coherent but (in node numbering) irregular set.
func irregOwned(perm []int32, nprocs, rank int) []int32 {
	lo, hi := rank*irrPoints/nprocs, (rank+1)*irrPoints/nprocs
	out := make([]int32, hi-lo)
	copy(out, perm[lo:hi])
	return out
}

// edgeChunk deals the edge list to nprocs processes in contiguous
// chunks (the regularly distributed ia/ib arrays of Figure 1) and
// returns the interleaved endpoint list for rank.
func edgeChunk(ia, ib []int32, nprocs, rank int) []int32 {
	lo, hi := rank*len(ia)/nprocs, (rank+1)*len(ia)/nprocs
	out := make([]int32, 0, 2*(hi-lo))
	for e := lo; e < hi; e++ {
		out = append(out, ia[e], ib[e])
	}
	return out
}

// coupledMeshes is the per-process state of the Figure 1 program.
type coupledMeshes struct {
	ctx  *core.Ctx
	a    *mbparti.Array  // structured mesh (halo 1)
	x, y *chaoslib.Array // unstructured node data
	ends []int32         // my edges' endpoints, interleaved
	gs   *mbparti.GhostSchedule
	lz   *chaoslib.Localized
	ghX  []float64
	ghY  []float64
}

// newCoupledMeshes builds the meshes (data distribution only; no
// schedules yet).
func newCoupledMeshes(p *mpsim.Proc, comm *mpsim.Comm, perm, ia, ib []int32) *coupledMeshes {
	ctx := core.NewCtx(p, comm)
	dist := distarray.MustBlock2D(regN, regN, comm.Size())
	a := mbparti.MustNewArray(dist, comm.Rank(), 1)
	a.FillGlobal(func(c []int) float64 { return float64(c[0]*regN + c[1]) })
	x := must(chaoslib.NewArray(ctx, irregOwned(perm, comm.Size(), comm.Rank())))
	y := chaoslib.NewAligned(x)
	x.FillGlobal(func(g int32) float64 { return float64(g) })
	return &coupledMeshes{
		ctx:  ctx,
		a:    a,
		x:    x,
		y:    y,
		ends: edgeChunk(ia, ib, comm.Size(), comm.Rank()),
	}
}

// inspector builds the intra-mesh schedules: the Parti ghost schedule
// for the structured sweep and the CHAOS localization for the
// unstructured sweep.
func (m *coupledMeshes) inspector(p *mpsim.Proc, comm *mpsim.Comm) {
	m.gs = must(mbparti.BuildGhostSchedule(p, comm, m.a))
	m.lz = chaoslib.Localize(m.ctx, m.x, m.ends)
	m.ghX = make([]float64, m.lz.NGhost())
	m.ghY = make([]float64, m.lz.NGhost())
}

// executor runs one time step of the two sweeps (Loops 1 and 3 of
// Figure 1), without the inter-mesh copies.
func (m *coupledMeshes) executor(p *mpsim.Proc) {
	// Structured sweep.
	m.gs.Exchange(p, m.a)
	mbparti.Stencil5(p, m.a)
	// Unstructured sweep over the edges.
	m.lz.Gather(m.x, m.ghX)
	for i := range m.ghY {
		m.ghY[i] = 0
	}
	for k := 0; k+1 < len(m.ends); k += 2 {
		s1, s2 := m.lz.Slots[k], m.lz.Slots[k+1]
		v := (chaoslib.Value(m.x, m.ghX, s1) + chaoslib.Value(m.x, m.ghX, s2)) / 4
		chaoslib.Accumulate(m.y, m.ghY, s1, v)
		chaoslib.Accumulate(m.y, m.ghY, s2, v)
	}
	p.ChargeFlops(3 * len(m.ends) / 2)
	p.ChargeMemOps(len(m.ends))
	m.lz.ScatterAdd(m.y, m.ghY)
}

// meshMapping returns the inter-mesh boundary mapping as Meta-Chaos
// region sets: the full structured mesh section on the Parti side and
// the corresponding node list on the CHAOS side.
func meshMapping(perm []int32) (regSet, irrSet *core.SetOfRegions) {
	regSet = core.NewSetOfRegions(gidx.FullSection(gidx.Shape{regN, regN}))
	irrSet = core.NewSetOfRegions(chaoslib.IndexRegion(perm))
	return regSet, irrSet
}
