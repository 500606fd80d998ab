//go:build go1.23

package sched

import "iter"

// newCoro creates the runtime coroutine a simulated thread runs on: next
// switches the caller's OS thread straight into body and returns when body
// yields or ends; a Goexit that escapes body resurfaces in next's caller.
// The go1.23 tag is there because go.mod must stay at go 1.22 (README).
func newCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool)) {
	next, _ = iter.Pull(body)
	return next
}
