package main

import (
	"errors"
	"fmt"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
)

// answer is what the HTTP workloads keep of one returned ordering until
// the checks run after the window: its length, a digest and the envelope
// size reported with it. Keeping the orderings themselves grew the heap
// that the load generator shares with the in-process daemon by 55 MB over
// a service_warm window: the 90th percentile latency of the window's
// second half came out up to twice that of its first, and peak_rss_mb
// measured the benchmark's own bookkeeping.
type answer struct {
	n      int
	digest uint64
	esize  int64
	perm   perm.Perm // kept only for fresh graphs, which have no reference
}

func newAnswer(p perm.Perm, esize int64, keep bool) answer {
	a := answer{n: len(p), digest: digest(p), esize: esize}
	if keep {
		a.perm = p
	}
	return a
}

// digest is the 64-bit FNV-1a hash of p's entries.
func digest(p perm.Perm) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// reference is the library's ordering of one graph for one algorithm,
// checked once, that every answer for the pair is held to.
type reference struct {
	n      int
	digest uint64
	esize  int64 // envelope.Esize recomputed on the graph
	err    error // the reference itself is not a valid ordering
}

func newReference(g *graph.Graph, p perm.Perm) *reference {
	ref := &reference{n: len(p), digest: digest(p)}
	if ref.err = checkPerm(p, g.N()); ref.err == nil {
		ref.esize = envelope.Esize(g, p)
	}
	return ref
}

var errDiffers = errors.New("HTTP ordering differs from Session.Order")

// check reports whether a is the reference ordering, reported with its
// envelope size.
func (a answer) check(ref *reference) error {
	switch {
	case ref.err != nil:
		return fmt.Errorf("library ordering: %w", ref.err)
	case a.n != ref.n || a.digest != ref.digest:
		return errDiffers
	case a.esize != ref.esize:
		return fmt.Errorf("reported Esize %d, recomputed %d", a.esize, ref.esize)
	}
	return nil
}

// checkResponse checks a served ordering of g and the envelope size it
// reports.
func checkResponse(g *graph.Graph, p perm.Perm, esize int64) error {
	if err := checkPerm(p, g.N()); err != nil {
		return err
	}
	if e := envelope.Esize(g, p); e != esize {
		return fmt.Errorf("reported Esize %d, recomputed %d", esize, e)
	}
	return nil
}
