package lparx

import "metachaos/internal/core"

// loc and posLoc are inquiry answers one element at a time, the form
// these tests state their expectations in.
type loc struct{ Proc, Off int32 }

type posLoc struct{ Pos, Off int32 }

// expand lists the location of every position of runs, in order.
func expand(runs []core.LocRun) []loc {
	var out []loc
	for _, r := range runs {
		for k := int32(0); k < r.Count; k++ {
			out = append(out, loc{Proc: r.Proc, Off: r.Off + k*r.Stride})
		}
	}
	return out
}

// expandOwned lists every (position, offset) of an OwnedPositions
// answer.
func expandOwned(runs []core.LocRun) []posLoc {
	var out []posLoc
	for _, r := range runs {
		for k := int32(0); k < r.Count; k++ {
			out = append(out, posLoc{Pos: r.Pos + k, Off: r.Off + k*r.Stride})
		}
	}
	return out
}

// points turns sorted positions into one-position intervals.
func points(positions []int32) []core.PosRange {
	out := make([]core.PosRange, len(positions))
	for i, pos := range positions {
		out[i] = core.PosRange{Lo: pos, Hi: pos + 1}
	}
	return out
}
