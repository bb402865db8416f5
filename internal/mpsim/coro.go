//go:build go1.23

package mpsim

import "iter"

// newCoroutine makes body a pull coroutine: next runs it up to its next
// yield (or its end) on the caller's thread, a direct switch that never
// visits the Go scheduler.  iter needs go1.23; the build line lets this
// one file have it while go.mod stays at the nested bench module's 1.22.
func newCoroutine(body func(yield func(struct{}) bool)) (next func() (struct{}, bool)) {
	next, _ = iter.Pull(iter.Seq[struct{}](body))
	return next
}
