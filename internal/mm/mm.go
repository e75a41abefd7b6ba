// Package mm reads and writes sparse symmetric matrix patterns in the
// Matrix Market exchange format (coordinate, real/pattern/integer,
// symmetric). It lets the ordering pipeline run on the genuine
// Boeing–Harwell/NASA matrices when the user has them, in place of the
// bundled synthetic stand-ins.
package mm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/graph"
)

// scanErr is the error behind a failed Scan: the read error, or io.EOF at
// the end of the input.
func scanErr(sc *bufio.Scanner) error {
	if err := sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// byteClass sorts bytes for splitFields: 0 for the rest of ASCII, 1 for
// the ASCII white space unicode.IsSpace accepts, 2 for a byte that starts
// or continues a multi-byte rune, which must be decoded to be classified.
var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = 2
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = 1
	}
	return t
}()

// splitFields stores the leading white-space-separated fields of line in f
// and returns how many it stored, at most len(f). Fields are split exactly
// as strings.Fields splits them, Unicode white space included, but they
// are sub-slices of line: nothing is allocated.
func splitFields(line []byte, f *[4][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		class, size := byteClass[line[i]], 1
		if class == 2 {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			class = 0
			if unicode.IsSpace(r) {
				class = 1
			}
		}
		if class == 0 {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			f[n] = line[start:i]
			n++
			start = -1
			if n == len(f) {
				return n
			}
		}
		i += size
	}
	if start >= 0 {
		f[n] = line[start:]
		n++
	}
	return n
}

// isContent reports whether a line split into n fields f carries data: it
// is neither blank nor a '%' comment.
func isContent(f *[4][]byte, n int) bool { return n > 0 && f[0][0] != '%' }

// trimmed is line without its surrounding white space, for error messages.
func trimmed(line []byte) string { return string(bytes.TrimSpace(line)) }

// ErrTooManyVertices is returned, wrapped, when a size line declares more
// vertices than the reader's limit.
var ErrTooManyVertices = errors.New("mm: too many vertices")

// ReadGraph parses a Matrix Market file and returns the adjacency graph of
// the matrix pattern: off-diagonal entries become edges (values, if
// present, are checked but otherwise ignored); diagonal entries are dropped
// (the envelope definitions assume a full nonzero diagonal anyway). The
// matrix must be square and declared symmetric (or skew-symmetric/hermitian,
// which share the one-triangle storage convention); "general" matrices are
// accepted and symmetrized.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	g, _, err := Read(r, false, math.MaxInt32)
	return g, err
}

// ReadWeighted parses a Matrix Market coordinate file keeping the entry
// magnitudes: it returns the pattern graph together with a symmetric
// weight function weight(u,v) = |a_uv| suitable for the weighted spectral
// ordering (core.WeightedSpectral). Pattern files get unit weights;
// duplicate entries keep the last value; for "general" matrices the
// magnitudes of a_uv and a_vu may differ, in which case the larger wins.
// Zero-valued stored entries receive the smallest positive stored
// magnitude so the weight function stays positive on the pattern.
func ReadWeighted(r io.Reader) (*graph.Graph, func(u, v int) float64, error) {
	return Read(r, true, math.MaxInt32)
}

// Read is the coordinate-format reader behind ReadGraph and ReadWeighted.
// Both modes accept the same files and build the same graph; with weighted
// false no weight is recorded and the weight function is nil. A size line
// that declares more than maxN vertices (or more than math.MaxInt32, since
// graph indices are int32) fails with ErrTooManyVertices before anything
// is allocated for them, so a caller can bound what a short input costs.
func Read(r io.Reader, weighted bool, maxN int) (*graph.Graph, func(u, v int) float64, error) {
	// The scanner tolerates the encodings real Matrix Market files arrive
	// in: CRLF line endings (it strips the '\r') and a final line with no
	// newline. A line longer than 1 MiB is an error. The buffer starts at
	// the scanner's 4 KiB and doubles only for a longer line, so a small
	// request body does not pay for a large buffer.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("mm: reading header: %w", scanErr(sc))
	}
	header := sc.Text()
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
	complexValues := valType == "complex"

	// Lines are split into sub-slices of the scanner's buffer, and each
	// field reaches strconv through a string conversion that does not
	// escape, which the compiler backs with a stack buffer for fields of up
	// to 32 bytes. So the loops allocate nothing per line.
	var f [4][]byte
	var nf int
	for {
		if !sc.Scan() {
			return nil, nil, fmt.Errorf("mm: missing size line: %w", scanErr(sc))
		}
		if nf = splitFields(sc.Bytes(), &f); isContent(&f, nf) {
			break
		}
	}
	sizeLine := trimmed(sc.Bytes())
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
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, nil, fmt.Errorf("mm: %w", err)
			}
			return nil, nil, fmt.Errorf("mm: expected %d entries, got %d (truncated file?)", nnz, read)
		}
		line := sc.Bytes()
		if nf = splitFields(line, &f); !isContent(&f, nf) {
			continue
		}
		if nf < 2 {
			return nil, nil, fmt.Errorf("mm: bad entry line %q", trimmed(line))
		}
		i, err1 := strconv.Atoi(string(f[0]))
		j, err2 := strconv.Atoi(string(f[1]))
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("mm: bad indices in %q", trimmed(line))
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, nil, fmt.Errorf("mm: entry (%d,%d) out of range [1,%d]", i, j, rows)
		}
		w := 1.0
		if hasValues {
			if nf < 3 {
				return nil, nil, fmt.Errorf("mm: missing value in %q", trimmed(line))
			}
			v, err := strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mm: bad value in %q: %w", trimmed(line), err)
			}
			w = math.Abs(v)
			if complexValues && nf >= 4 {
				im, err := strconv.ParseFloat(string(f[3]), 64)
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad imaginary part in %q: %w", trimmed(line), err)
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

// WriteGraph writes the graph's pattern as a Matrix Market symmetric
// pattern matrix (lower triangle plus the implicit unit diagonal, matching
// the envelope convention of nonzero diagonals).
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.N()
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%% generated by repro (spectral envelope reduction)\n%d %d %d\n", n, n, g.M()+n)
	// Each entry is formatted straight into the writer's free space,
	// flushed first when less than a line's worth is left, so no entry
	// allocates. A write error sticks in bw and the final Flush reports it.
	const maxLine = 2*20 + 2 // two 20-byte integers, a space and a newline
	entry := func(i, j int) {
		if bw.Available() < maxLine {
			bw.Flush()
		}
		buf := strconv.AppendInt(bw.AvailableBuffer(), int64(i), 10)
		buf = strconv.AppendInt(append(buf, ' '), int64(j), 10)
		bw.Write(append(buf, '\n'))
	}
	for v := 0; v < n; v++ {
		entry(v+1, v+1)
		for _, u := range g.Neighbors(v) {
			if int(u) < v { // store lower triangle: row v, col u < v
				entry(v+1, int(u)+1)
			}
		}
	}
	return bw.Flush()
}
