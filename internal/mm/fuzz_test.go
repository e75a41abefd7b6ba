package mm

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadMatrixMarket feeds arbitrary bytes to both reader modes. Neither
// may panic, and since pattern mode differs from weighted mode only in the
// weights it records, both must accept the same inputs and build the same
// CSR, with a positive weight on every edge. The vertex limit keeps a
// size line such as "2147483647 2147483647 0" from allocating gigabytes.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, seed := range []string{
		robustBody,
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2",
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 1 1.0\n3 1 4\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 0.0\n3 2 0.25\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1.0 0.0\n2 1 3.0 4.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 xyz\n",
		"%%MatrixMarket matrix coordinate real symmetric\n-3 -3 0\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n5 5 10\n2 1\n3 1\n",
		"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		g, _, errP := Read(bytes.NewReader(data), false, limit)
		gw, weight, errW := Read(bytes.NewReader(data), true, limit)
		if (errP == nil) != (errW == nil) {
			t.Fatalf("pattern mode err = %v, weighted mode err = %v", errP, errW)
		}
		if errP != nil {
			return
		}
		if !slices.Equal(g.Xadj, gw.Xadj) || !slices.Equal(g.Adj, gw.Adj) {
			t.Fatal("pattern and weighted modes built different graphs")
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if w := weight(u, int(v)); !(w > 0) {
					t.Fatalf("weight(%d,%d) = %v, want > 0", u, v, w)
				}
			}
		}
	})
}
