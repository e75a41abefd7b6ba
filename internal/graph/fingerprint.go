package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is the canonical content identity of a Graph: the SHA-256
// digest of its CSR arrays. Two graphs have equal fingerprints exactly when
// they are structurally identical (same vertex count, same canonical
// adjacency), regardless of how or where they were built — the identity the
// Session cache interns graphs by and the persistent artifact store keys
// by, so an eigensolve computed for a matrix in one process is addressable
// from any other.
type Fingerprint [sha256.Size]byte

// String returns the lowercase hex form — stable, filesystem- and
// URL-safe, suitable for store entry names and log lines.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// FingerprintOf computes g's content fingerprint, hashing the CSR arrays
// chunk-wise through a fixed buffer (no allocation proportional to the
// graph). Graphs are immutable after construction, so the fingerprint can
// be computed once and reused for the graph's lifetime.
func FingerprintOf(g *Graph) Fingerprint {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(g.N()))
	h.Write(hdr[:])
	var buf [4 * 4096]byte
	hashInt32s(h, buf[:], g.Xadj)
	hashInt32s(h, buf[:], g.Adj)
	return Fingerprint(h.Sum(nil))
}

func hashInt32s(h interface{ Write([]byte) (int, error) }, buf []byte, vals []int32) {
	for len(vals) > 0 {
		n := len(buf) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		h.Write(buf[:4*n])
		vals = vals[n:]
	}
}
