//go:build !race

package pib_test

// raceBuild is set in a race-detector build, whose sync.Pool drops a
// quarter of what is put into it at random, and whose allocations are
// the instrumented program's.
const raceBuild = false
