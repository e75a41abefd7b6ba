package pipeline

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// StoreKeyFor computes the persistent-store key for g's artifacts under
// sopt: the graph's canonical content fingerprint paired with a digest of
// the spectral options with their operator plumbing cleared (artKey), the
// operator-free options the in-memory artifact maps key on, so tier 1 and
// tier 2 agree on what "the same solve" means.
func StoreKeyFor(g *graph.Graph, sopt core.Options) store.Key {
	return store.Key{Graph: graph.FingerprintOf(g), Opts: OptionDigest(sopt)}
}

// artKey clears the per-solve operator fields of opt: they are plumbing
// (cached artifacts install their own shared operator), not identity.
func artKey(opt core.Options) core.Options {
	opt.Operator = nil
	opt.Multilevel.FinestOp = nil
	return opt
}

// solverVersion names the eigensolver behind the default answers. It is
// bumped whenever the default solve can return a different vector for the
// same graph and options, so that a store filled by an older build is never
// served: version 2 is MethodAuto running the multilevel solver, with its
// LOBPCG step, at every size.
const solverVersion = 2

// OptionDigest hashes the solver version and the identity-bearing spectral
// options into the store key's option half. After artKey clears the
// per-solve operator fields, every remaining field is a scalar, so the %#v
// rendering is a canonical deterministic encoding of the option set (and
// automatically picks up fields added to core.Options later).
func OptionDigest(sopt core.Options) [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "solver v%d %#v", solverVersion, artKey(sopt)))
}
