package metachaos_test

import (
	"metachaos"
	"metachaos/internal/mbparti"
)

// buildGhost keeps the benchmark file free of internal plumbing.
func buildGhost(p *metachaos.Proc, a *metachaos.MBPartiArray) (*mbparti.GhostSchedule, error) {
	return mbparti.BuildGhostSchedule(p, p.Comm(), a)
}

// int32s converts a permutation to the index type the libraries take.
func int32s(perm []int) []int32 {
	out := make([]int32, len(perm))
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}
