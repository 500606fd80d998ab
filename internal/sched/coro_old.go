//go:build !go1.23

package sched

// The scheduler switches simulated threads with iter.Pull (coro.go).
var newCoro = vampos_needs_a_Go_1_23_or_newer_toolchain
