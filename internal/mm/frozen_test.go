package mm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// This file freezes the Matrix Market code the byte-level reader and the
// strconv-based writer replaced: a bufio.Scanner line reader that made a
// string per line and split it with strings.Fields, and a writer that
// formatted every entry with fmt.Fprintf. The differential fuzz target and
// the identity tests in reader_oracle_test.go hold mm.Read and WriteGraph
// to them: same inputs accepted and rejected, same CSR, same weights, same
// bytes written.

// frozenLineReader yields logical lines from r, tolerating the encodings real
// Matrix Market files arrive in: CRLF line endings (the trailing '\r' is
// stripped) and files whose final line has no terminating newline. next
// returns io.EOF after the last line and propagates underlying read errors.
type frozenLineReader struct {
	sc *bufio.Scanner
}

func newFrozenLineReader(r io.Reader) *frozenLineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &frozenLineReader{sc: sc}
}

func (lr *frozenLineReader) next() (string, error) {
	if lr.sc.Scan() {
		return lr.sc.Text(), nil
	}
	if err := lr.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// sizeLine skips blank and comment lines and returns the first content
// line (the coordinate-format size line).
func (lr *frozenLineReader) sizeLine() (string, error) {
	for {
		line, err := lr.next()
		if err != nil {
			return "", fmt.Errorf("mm: missing size line: %w", err)
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		return t, nil
	}
}

// frozenRead is the string-per-line Read.
func frozenRead(r io.Reader, weighted bool, maxN int) (*graph.Graph, func(u, v int) float64, error) {
	lr := newFrozenLineReader(r)
	header, err := lr.next()
	if err != nil {
		return nil, nil, fmt.Errorf("mm: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, nil, fmt.Errorf("mm: not a Matrix Market file: %q", strings.TrimSpace(header))
	}
	if fields[2] != "coordinate" {
		return nil, nil, fmt.Errorf("mm: only coordinate format supported, got %q", fields[2])
	}
	valType := fields[3]
	switch valType {
	case "real", "integer", "pattern", "complex":
	default:
		return nil, nil, fmt.Errorf("mm: unknown value type %q", valType)
	}
	hasValues := valType != "pattern"

	sizeLine, err := lr.sizeLine()
	if err != nil {
		return nil, nil, err
	}
	var rows, cols, nnz int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return nil, nil, fmt.Errorf("mm: bad size line %q: %w", sizeLine, err)
	}
	if rows != cols {
		return nil, nil, fmt.Errorf("mm: matrix is %dx%d, want square", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return nil, nil, fmt.Errorf("mm: negative dimensions")
	}
	if rows > maxN || rows > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: %d declared, limit %d", ErrTooManyVertices, rows, min(maxN, math.MaxInt32))
	}

	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	var weights map[int64]float64
	if weighted {
		weights = map[int64]float64{}
	}
	b := graph.NewBuilder(rows)
	read := 0
	minPos := math.Inf(1)
	for read < nnz {
		line, err := lr.next()
		if err != nil {
			if err == io.EOF {
				return nil, nil, fmt.Errorf("mm: expected %d entries, got %d (truncated file?)", nnz, read)
			}
			return nil, nil, fmt.Errorf("mm: %w", err)
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		f := strings.Fields(t)
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("mm: bad entry line %q", t)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("mm: bad indices in %q", t)
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, nil, fmt.Errorf("mm: entry (%d,%d) out of range [1,%d]", i, j, rows)
		}
		w := 1.0
		if hasValues {
			if len(f) < 3 {
				return nil, nil, fmt.Errorf("mm: missing value in %q", t)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mm: bad value in %q: %w", t, err)
			}
			w = math.Abs(v)
			if valType == "complex" && len(f) >= 4 {
				im, err := strconv.ParseFloat(f[3], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad imaginary part in %q: %w", t, err)
				}
				w = math.Hypot(v, im)
			}
		}
		if i != j {
			b.AddEdge(i-1, j-1)
			if weighted {
				k := key(i-1, j-1)
				if w > weights[k] {
					weights[k] = w
				}
				if w > 0 && w < minPos {
					minPos = w
				}
			}
		}
		read++
	}
	g := b.Build()
	if !weighted {
		return g, nil, nil
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	weight := func(u, v int) float64 {
		if w := weights[key(u, v)]; w > 0 {
			return w
		}
		return minPos
	}
	return g, weight, nil
}

// frozenWriteGraph is the fmt-based WriteGraph.
func frozenWriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.N()
	nnz := g.M() + n
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern symmetric\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%% generated by repro (spectral envelope reduction)\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", n, n, nnz); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if _, err := fmt.Fprintf(bw, "%d %d\n", v+1, v+1); err != nil {
			return err
		}
		for _, u := range g.Neighbors(v) {
			if int(u) < v { // store lower triangle: row v, col u < v
				if _, err := fmt.Fprintf(bw, "%d %d\n", v+1, u+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
