package metachaos_test

// int32s converts a permutation to the index type the libraries take.
func int32s(perm []int) []int32 {
	out := make([]int32, len(perm))
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}
