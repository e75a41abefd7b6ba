//go:build race

package envred_test

// raceEnabled reports whether the race detector is on. It drops one
// sync.Pool.Put in four at random, so a path that is allocation-free
// because its state comes back from pools may allocate under it.
const raceEnabled = true
