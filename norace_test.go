//go:build !race

package envred_test

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
