package perm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
)

// UnmarshalJSON reads p as encoding/json reads a []int32, scanning the
// array by hand. It accepts and rejects what encoding/json does: null
// gives a nil Perm and [] an empty one; an element must be an integer
// literal in int32 range (-0 included, no fraction or exponent) or null,
// which leaves the element as it was — zero in fresh storage. Like
// encoding/json it reuses p's backing array. A well-formed value of the
// wrong type is a *json.UnmarshalTypeError naming what encoding/json
// names; unlike encoding/json, which records that error and decodes the
// rest of the document, the decode stops there, as it does for any error
// an Unmarshaler returns. Malformed input is an error, never a panic.
func (p *Perm) UnmarshalJSON(data []byte) error {
	s := jsonScan{b: data}
	s.space()
	if s.literal("null") {
		if !s.done() {
			return s.syntax()
		}
		*p = nil
		return nil
	}
	if !s.next('[') {
		return s.typeError(reflect.TypeFor[Perm]())
	}
	out := (*p)[:0]
	if out == nil {
		// One allocation: an array has at most one entry more than commas.
		out = make(Perm, 0, bytes.Count(data, []byte{','})+1)
	}
	s.space()
	if !s.next(']') {
		for {
			s.space()
			switch {
			case s.literal("null"):
				if len(out) < cap(out) {
					out = out[:len(out)+1]
				} else {
					out = append(out, 0)
				}
			case s.at('-') || s.digit():
				v, err := s.int32()
				if err != nil {
					return err
				}
				out = append(out, v)
			default:
				return s.typeError(reflect.TypeFor[int32]())
			}
			s.space()
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return s.syntax()
			}
		}
	}
	if !s.done() {
		return s.syntax()
	}
	*p = out
	return nil
}

// jsonScan is a cursor over a JSON document.
type jsonScan struct {
	b []byte
	i int
}

// space skips JSON white space.
func (s *jsonScan) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// at reports whether the next byte is c.
func (s *jsonScan) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// next consumes c if it is the next byte.
func (s *jsonScan) next(c byte) bool {
	if s.at(c) {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if the input continues with it.
func (s *jsonScan) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// done reports whether only white space is left.
func (s *jsonScan) done() bool {
	s.space()
	return s.i == len(s.b)
}

func (s *jsonScan) syntax() error {
	return fmt.Errorf("perm: invalid JSON at offset %d", s.i)
}

// typeError is encoding/json's error for the well-formed value at the
// cursor, which cannot decode into t; it names the value's kind by its
// first byte, and its offset counts from the start of the Perm's bytes.
// Any other byte is a syntax error.
func (s *jsonScan) typeError(t reflect.Type) error {
	var kind string
	switch {
	case s.at('"'):
		kind = "string"
	case s.at('{'):
		kind = "object"
	case s.at('['):
		kind = "array"
	case s.at('t') || s.at('f'):
		kind = "bool"
	case s.at('-') || s.digit():
		kind = "number"
	default:
		return s.syntax()
	}
	return &json.UnmarshalTypeError{Value: kind, Type: t, Offset: int64(s.i)}
}

// int32 consumes one JSON number and returns it when it is an integer in
// int32 range. A number with a fraction or an exponent is well-formed JSON
// that encoding/json refuses for an integer type, and so is one out of
// range; a malformed number is a syntax error.
func (s *jsonScan) int32() (int32, error) {
	begin := s.i
	neg := s.next('-')
	var v int64 // stops growing past 1<<31: out of range either way
	switch {
	case s.next('0'):
	case s.digit():
		for ; s.digit(); s.i++ {
			if v <= 1<<31 {
				v = v*10 + int64(s.b[s.i]-'0')
			}
		}
	default:
		return 0, s.syntax()
	}
	integer := true
	if s.next('.') {
		if !s.digits() {
			return 0, s.syntax()
		}
		integer = false
	}
	if s.next('e') || s.next('E') {
		if !s.next('+') {
			s.next('-')
		}
		if !s.digits() {
			return 0, s.syntax()
		}
		integer = false
	}
	if neg {
		v = -v
	}
	if !integer || v < -1<<31 || v > 1<<31-1 {
		return 0, &json.UnmarshalTypeError{Value: "number " + string(s.b[begin:s.i]), Type: reflect.TypeFor[int32](), Offset: int64(begin)}
	}
	return int32(v), nil
}

// digit reports whether the next byte is a decimal digit.
func (s *jsonScan) digit() bool { return s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' }

// digits consumes one or more decimal digits.
func (s *jsonScan) digits() bool {
	start := s.i
	for s.digit() {
		s.i++
	}
	return s.i > start
}
