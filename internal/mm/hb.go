package mm

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// This file reads the Harwell–Boeing exchange format — the fixed-column
// FORTRAN format in which the paper's Boeing–Harwell test matrices
// (BCSSTK13/29/30/31/32/33, CAN1072, …) were actually distributed. With it,
// users holding the original collection can run the pipeline on the exact
// matrices of Tables 4.1–4.2.

// fortranFormat describes one repeated fixed-width numeric field, parsed
// from descriptors such as "(13I6)", "(4E20.12)" or "(1P5D16.8)".
type fortranFormat struct {
	perLine int
	width   int
}

var fortranFormatRE = regexp.MustCompile(`^\(\s*(?:\d+\s*P\s*,?\s*)?(\d*)\s*[IiEeFfDdGg]\s*(\d+)(?:\.\d+)?\s*\)$`)

func parseFortranFormat(s string) (fortranFormat, error) {
	m := fortranFormatRE.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return fortranFormat{}, fmt.Errorf("mm: unsupported FORTRAN format %q", s)
	}
	per := 1
	if m[1] != "" {
		v, err := strconv.Atoi(m[1])
		if err != nil || v < 1 {
			return fortranFormat{}, fmt.Errorf("mm: bad repeat in format %q", s)
		}
		per = v
	}
	w, err := strconv.Atoi(m[2])
	if err != nil || w < 1 {
		return fortranFormat{}, fmt.Errorf("mm: bad width in format %q", s)
	}
	return fortranFormat{perLine: per, width: w}, nil
}

// readFixed reads count fixed-width fields laid out f.perLine per card.
// The result grows with the fields actually read, so a header declaring
// more than the input holds costs what the input holds.
func readFixed(br *bufio.Reader, f fortranFormat, count int) ([]string, error) {
	var out []string
	for len(out) < count {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			return nil, fmt.Errorf("mm: unexpected end of HB data: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		for i := 0; i < f.perLine && len(out) < count; i++ {
			lo := i * f.width
			if lo >= len(line) {
				break
			}
			hi := lo + f.width
			if hi > len(line) {
				hi = len(line)
			}
			field := strings.TrimSpace(line[lo:hi])
			if field == "" {
				continue
			}
			out = append(out, field)
		}
		if err != nil && len(out) < count {
			return nil, fmt.Errorf("mm: HB data truncated (%d of %d fields)", len(out), count)
		}
	}
	return out, nil
}

// fortranFloat converts FORTRAN literals (D exponents, missing 'E') to Go
// floats.
func fortranFloat(s string) (float64, error) {
	s = strings.ReplaceAll(strings.ReplaceAll(s, "D", "E"), "d", "e")
	// Handle "1.23+05" style (exponent without letter).
	if i := strings.LastIndexAny(s, "+-"); i > 0 && s[i-1] != 'e' && s[i-1] != 'E' {
		s = s[:i] + "e" + s[i:]
	}
	return strconv.ParseFloat(s, 64)
}

// ReadHarwellBoeing parses a Harwell–Boeing file and returns the adjacency
// graph of the matrix pattern together with a positive symmetric weight
// function (unit weights for pattern matrices), exactly as ReadWeighted
// does for Matrix Market files. Supported types: assembled (x-x-A) real,
// pattern and complex matrices, symmetric or general (symmetrized);
// elemental matrices are rejected.
func ReadHarwellBoeing(r io.Reader) (*graph.Graph, func(u, v int) float64, error) {
	br := bufio.NewReader(r)
	card := func() (string, error) {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			return "", fmt.Errorf("mm: truncated HB header: %w", err)
		}
		return strings.TrimRight(line, "\r\n"), nil
	}
	// Card 1: title/key — ignored.
	if _, err := card(); err != nil {
		return nil, nil, err
	}
	// Card 2: card counts.
	l2, err := card()
	if err != nil {
		return nil, nil, err
	}
	var totcrd, ptrcrd, indcrd, valcrd, rhscrd int
	n2, _ := fmt.Sscan(l2, &totcrd, &ptrcrd, &indcrd, &valcrd, &rhscrd)
	if n2 < 4 {
		return nil, nil, fmt.Errorf("mm: bad HB card-count line %q", l2)
	}
	// Card 3: type and dimensions.
	l3, err := card()
	if err != nil {
		return nil, nil, err
	}
	if len(l3) < 3 {
		return nil, nil, fmt.Errorf("mm: bad HB type line %q", l3)
	}
	mxtype := strings.ToUpper(strings.TrimSpace(l3[:3]))
	rest := strings.Fields(l3[3:])
	if len(rest) < 3 {
		return nil, nil, fmt.Errorf("mm: bad HB dimension line %q", l3)
	}
	nrow, err1 := strconv.Atoi(rest[0])
	ncol, err2 := strconv.Atoi(rest[1])
	nnz, err3 := strconv.Atoi(rest[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, nil, fmt.Errorf("mm: bad HB dimensions in %q", l3)
	}
	if nrow != ncol {
		return nil, nil, fmt.Errorf("mm: HB matrix is %dx%d, want square", nrow, ncol)
	}
	const maxSize = 1<<31 - 1 // graph indices are int32
	if ncol < 0 || nnz < 0 || ncol > maxSize || nnz > maxSize {
		return nil, nil, fmt.Errorf("mm: HB sizes %d and %d outside [0, %d]", ncol, nnz, maxSize)
	}
	if len(mxtype) != 3 || mxtype[2] == 'E' {
		return nil, nil, fmt.Errorf("mm: unsupported HB type %q (elemental or malformed)", mxtype)
	}
	valued := mxtype[0] == 'R' || mxtype[0] == 'C'
	complexVals := mxtype[0] == 'C'
	// Card 4: formats.
	l4, err := card()
	if err != nil {
		return nil, nil, err
	}
	ff := strings.Fields(l4)
	if len(ff) < 2 {
		return nil, nil, fmt.Errorf("mm: bad HB format line %q", l4)
	}
	ptrFmt, err := parseFortranFormat(ff[0])
	if err != nil {
		return nil, nil, err
	}
	indFmt, err := parseFortranFormat(ff[1])
	if err != nil {
		return nil, nil, err
	}
	var valFmt fortranFormat
	if valued && valcrd > 0 {
		if len(ff) < 3 {
			return nil, nil, fmt.Errorf("mm: missing value format in %q", l4)
		}
		valFmt, err = parseFortranFormat(ff[2])
		if err != nil {
			return nil, nil, err
		}
	}
	// Card 5 (optional): RHS descriptor.
	if rhscrd > 0 {
		if _, err := card(); err != nil {
			return nil, nil, err
		}
	}

	colPtrS, err := readFixed(br, ptrFmt, ncol+1)
	if err != nil {
		return nil, nil, err
	}
	rowIndS, err := readFixed(br, indFmt, nnz)
	if err != nil {
		return nil, nil, err
	}
	colPtr := make([]int, ncol+1)
	for i, s := range colPtrS {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, nil, fmt.Errorf("mm: bad HB pointer %q", s)
		}
		// Pointers index the nnz row entries from 1 and never go back.
		lo := 1
		if i > 0 {
			lo = colPtr[i-1]
		}
		if v < lo || v > nnz+1 {
			return nil, nil, fmt.Errorf("mm: HB pointer %d of column %d not in [%d, %d]", v, i+1, lo, nnz+1)
		}
		colPtr[i] = v
	}
	if colPtr[0] != 1 || colPtr[ncol]-1 != nnz {
		return nil, nil, fmt.Errorf("mm: inconsistent HB pointers (first %d, last %d, nnz %d)",
			colPtr[0], colPtr[ncol], nnz)
	}
	vals := make([]float64, nnz)
	for i := range vals {
		vals[i] = 1
	}
	if valued && valcrd > 0 {
		want := nnz
		if complexVals {
			want = 2 * nnz
		}
		valS, err := readFixed(br, valFmt, want)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < nnz; i++ {
			if complexVals {
				re, err1 := fortranFloat(valS[2*i])
				im, err2 := fortranFloat(valS[2*i+1])
				if err1 != nil || err2 != nil {
					return nil, nil, fmt.Errorf("mm: bad HB complex value at %d", i)
				}
				vals[i] = abs2(re, im)
			} else {
				v, err := fortranFloat(valS[i])
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad HB value %q", valS[i])
				}
				if v < 0 {
					v = -v
				}
				vals[i] = v
			}
		}
	}

	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	weights := make(map[int64]float64)
	minPos := 0.0
	b := graph.NewBuilder(nrow)
	idx := 0
	for col := 0; col < ncol; col++ {
		for p := colPtr[col]; p < colPtr[col+1]; p++ {
			rs := rowIndS[idx]
			idx++
			row, err := strconv.Atoi(rs)
			if err != nil || row < 1 || row > nrow {
				return nil, nil, fmt.Errorf("mm: bad HB row index %q in column %d", rs, col+1)
			}
			if row-1 == col {
				continue
			}
			b.AddEdge(row-1, col)
			w := vals[p-1]
			k := key(row-1, col)
			if w > weights[k] {
				weights[k] = w
			}
			if w > 0 && (minPos == 0 || w < minPos) {
				minPos = w
			}
		}
	}
	if minPos == 0 {
		minPos = 1
	}
	g := b.Build()
	weight := func(u, v int) float64 {
		if w := weights[key(u, v)]; w > 0 {
			return w
		}
		return minPos
	}
	return g, weight, nil
}

func abs2(re, im float64) float64 {
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re == 0 {
		return im
	}
	if im == 0 {
		return re
	}
	// hypot without importing math twice; precision is irrelevant for
	// ordering weights.
	if re < im {
		re, im = im, re
	}
	r := im / re
	return re * sqrt1p(r*r)
}

func sqrt1p(x float64) float64 {
	// Newton iteration for sqrt(1+x), x ∈ [0,1]; three steps suffice for
	// weight purposes.
	y := 1 + x/2
	for i := 0; i < 3; i++ {
		y = 0.5 * (y + (1+x)/y)
	}
	return y
}
