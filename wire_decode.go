package mlpart

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
)

// UnmarshalJSON decodes a WireGraph. The canonical shape — what
// json.Marshal(NewWireGraph(g)) and the SDK clients send — is parsed in
// one pass into exactly sized slices: an object whose keys are exactly
// "xadj", "adjncy", "adjwgt" and "vwgt", each at most once and in any
// order, each value null or an array of plain decimal integers, with JSON
// whitespace anywhere. Any other input (escaped or case-variant keys,
// unknown or duplicate keys, 1e2, 1.0, 01, overflow, trailing bytes) is
// decoded by encoding/json's reflection decoder on the same bytes, so
// errors, nil versus empty slices and absent fields keeping their prior
// value are exactly what a method-free WireGraph gets.
func (w *WireGraph) UnmarshalJSON(data []byte) error {
	arrays, present, ok := parseCanonicalGraph(data)
	if !ok {
		// The local type has no methods, so this does not recurse, and
		// it keeps the struct name encoding/json prints in type errors.
		type plain WireGraph
		type WireGraph plain
		return json.Unmarshal(data, (*WireGraph)(w))
	}
	for i, dst := range [...]*[]int{&w.Xadj, &w.Adjncy, &w.Adjwgt, &w.Vwgt} {
		if present[i] {
			*dst = arrays[i]
		}
	}
	return nil
}

// wireGraphKeys are WireGraph's JSON field names in field order.
var wireGraphKeys = [...]string{"xadj", "adjncy", "adjwgt", "vwgt"}

// parseCanonicalGraph parses the canonical WireGraph object. arrays and
// present are indexed like wireGraphKeys; a present null value is a nil
// slice. ok is false for every other input, valid JSON or not.
func parseCanonicalGraph(data []byte) (arrays [4][]int, present [4]bool, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return arrays, present, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return arrays, present, skipSpace(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '"' {
			return arrays, present, false
		}
		// A key holding an escape never equals one of the four names.
		n := bytes.IndexByte(data[i+1:], '"')
		if n < 0 {
			return arrays, present, false
		}
		k := slices.Index(wireGraphKeys[:], string(data[i+1:i+1+n]))
		if k < 0 || present[k] {
			return arrays, present, false
		}
		present[k] = true
		i = skipSpace(data, i+2+n)
		if i == len(data) || data[i] != ':' {
			return arrays, present, false
		}
		i = skipSpace(data, i+1)
		if bytes.HasPrefix(data[i:], []byte("null")) {
			i += len("null")
		} else if arrays[k], i, ok = parseIntArray(data, i); !ok {
			return arrays, present, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return arrays, present, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return arrays, present, skipSpace(data, i+1) == len(data)
		default:
			return arrays, present, false
		}
	}
}

// parseIntArray parses the array of plain decimal ints starting at
// data[i] == '[' and returns it with the offset past its ']'. The slice
// is sized exactly up front from the commas before the first ']'; an
// array holding anything else fails the parse. An empty array is
// non-nil, as encoding/json makes it.
func parseIntArray(data []byte, i int) ([]int, int, bool) {
	if i == len(data) || data[i] != '[' {
		return nil, i, false
	}
	n := bytes.IndexByte(data[i:], ']')
	if n < 0 {
		return nil, i, false
	}
	body, next := data[i+1:i+n], i+n+1
	j := skipSpace(body, 0)
	if j == len(body) {
		return []int{}, next, true
	}
	out := make([]int, bytes.Count(body, []byte{','})+1)
	for k := range out {
		var ok bool
		if out[k], j, ok = parseInt(body, j); !ok {
			return nil, i, false
		}
		j = skipSpace(body, j)
		if k < len(out)-1 {
			if j == len(body) || body[j] != ',' {
				return nil, i, false
			}
			j = skipSpace(body, j+1)
		}
	}
	return out, next, j == len(body)
}

// parseInt parses one JSON integer -?(0|[1-9][0-9]*) within int range
// at b[j] and returns it with the offset past it.
func parseInt(b []byte, j int) (int, int, bool) {
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	start := j
	var u uint64
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		u = u*10 + uint64(b[j]-'0')
		j++
	}
	// 19 digits cannot overflow u; more, or a leading zero, fail.
	digits := j - start
	if digits == 0 || digits > 19 || (digits > 1 && b[start] == '0') {
		return 0, j, false
	}
	if neg {
		if u > uint64(math.MaxInt)+1 {
			return 0, j, false
		}
		return -int(u), j, true
	}
	if u > math.MaxInt {
		return 0, j, false
	}
	return int(u), j, true
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
