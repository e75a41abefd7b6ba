package core_test

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// The store key's option half carries the solver version: a store filled
// while MethodAuto still sent components of up to 2000 vertices to direct
// Lanczos keyed the default options to the digest below, and must never
// serve the answers of today's solver.
func TestOptionDigestVersioned(t *testing.T) {
	const lanczosSwitchDigest = "bcc2a1014ad52e19c3e9b1c79688a70d9c548f318285256b5c4db4372db13418"
	d := pipeline.OptionDigest(core.Options{Seed: 1})
	if hex.EncodeToString(d[:]) == lanczosSwitchDigest {
		t.Fatal("OptionDigest(Options{Seed: 1}) still equals the digest of the 2000-vertex Lanczos switch")
	}
}
