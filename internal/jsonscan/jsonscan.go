// Package jsonscan is the hand-rolled JSON scanner the request and
// report codecs share. It recognises only the canonical shapes the
// serving paths decode on every request — plain ASCII strings with no
// escapes, RFC 8259 numbers, objects and arrays of those — and reports
// ok=false for anything else, so its callers can hand the input to
// encoding/json, which accepts everything JSON allows and is the
// source of the error messages.
//
// Every scanner takes the input and an index into it and returns the
// index just past what it consumed; none of them allocates. Keys
// interns the key strings the decoders keep.
package jsonscan

import "strconv"

// SkipSpace advances past JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// End reports whether only whitespace follows b[i].
func End(b []byte, i int) bool { return SkipSpace(b, i) == len(b) }

// String parses a JSON string of printable ASCII with no escapes
// starting at b[i] (which must be '"'), returning the raw bytes between
// the quotes. Anything else is left to encoding/json, which also
// replaces invalid UTF-8.
func String(b []byte, i int) (raw []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch {
		case b[j] == '"':
			return b[i+1 : j], j + 1, true
		case b[j] == '\\' || b[j] < 0x20 || b[j] >= 0x80:
			return nil, i, false
		}
	}
	return nil, i, false
}

// digits advances past ASCII digits.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// Number parses a JSON number starting at b[i], exactly the RFC 8259
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — so "+1",
// "01", ".5" and "1." are refused here, as encoding/json refuses them.
// The value is strconv.ParseFloat's, as encoding/json's is.
func Number(b []byte, i int) (v float64, next int, ok bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = digits(b, j+1)
	default:
		return 0, i, false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return 0, i, false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return 0, i, false
		}
		j = k
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil { // out of float64 range: encoding/json refuses it too
		return 0, i, false
	}
	return v, j, true
}

// Open enters the object or array at b[i], whose delimiters are open
// and close. It returns the index of the first member and more=true,
// or the index past close and more=false when the container is empty.
func Open(b []byte, i int, open, close byte) (next int, more, ok bool) {
	if i >= len(b) || b[i] != open {
		return i, false, false
	}
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == close {
		return i + 1, false, true
	}
	return i, true, i < len(b)
}

// Sep steps over what follows a member that ends at b[i]: a ',' and
// the next member (more=true, the index of that member), or close
// (more=false, the index past it). A trailing comma is refused.
func Sep(b []byte, i int, close byte) (next int, more, ok bool) {
	i = SkipSpace(b, i)
	switch {
	case i < len(b) && b[i] == ',':
		i = SkipSpace(b, i+1)
		return i, true, i < len(b) && b[i] != close
	case i < len(b) && b[i] == close:
		return i + 1, false, true
	}
	return i, false, false
}

// Key parses the member name at b[i] and the ':' after it, returning
// the name's raw bytes and the index of the member's value.
func Key(b []byte, i int) (raw []byte, next int, ok bool) {
	raw, i, ok = String(b, i)
	if !ok {
		return nil, i, false
	}
	i = SkipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return nil, i, false
	}
	return raw, SkipSpace(b, i+1), true
}

// FieldStart scans `{ "key" :` from the start of b and returns the
// index of the field's value.
//
//loclint:hotpath
func FieldStart(b []byte, key string) (int, bool) {
	i, more, ok := Open(b, SkipSpace(b, 0), '{', '}')
	if !ok || !more {
		return i, false
	}
	raw, i, ok := Key(b, i)
	if !ok || string(raw) != key {
		return i, false
	}
	return i, true
}

// FlatObject parses the flat object at b[i] — plain string keys mapped
// to numbers — into m, interning the keys through keys, and returns
// the index past its '}'. A repeated key keeps its last value, as
// encoding/json does. ok=false means the object is not in that shape;
// m may then be partly filled.
//
//loclint:hotpath
func FlatObject(b []byte, i int, keys *Keys, m map[string]float64) (next int, ok bool) {
	i, more, ok := Open(b, i, '{', '}')
	for ok && more {
		var raw []byte
		if raw, i, ok = Key(b, i); !ok {
			break
		}
		var v float64
		if v, i, ok = Number(b, i); !ok {
			break
		}
		m[keys.Intern(raw)] = v
		i, more, ok = Sep(b, i, '}')
	}
	return i, ok
}

// maxMembers bounds Members' hint. The hint sizes a map before
// anything is parsed, so an unbounded one would let a body of bare
// commas make the caller allocate buckets for millions of members.
const maxMembers = 64

// Members estimates the member count of the flat object at b[i] by its
// commas, to size the map FlatObject fills. It is a hint, not a parse:
// a key holding ',' or '}' makes it miscount, and it counts no further
// than maxMembers.
func Members(b []byte, i int) int {
	n := 1
	for ; i < len(b) && b[i] != '}' && n < maxMembers; i++ {
		if b[i] == ',' {
			n++
		}
	}
	return n
}

// Keys interns key strings across the payloads one decoder reads: a
// fleet of clients reports the same access points over and over, so
// after warm-up a decoder stops allocating key strings. The table is
// bounded so a hostile client cannot grow it without limit. The zero
// value is ready to use. Not safe for concurrent use.
type Keys struct {
	m map[string]string
}

// maxKeys bounds one intern table.
const maxKeys = 4096

// Intern returns raw as a string, reusing a previously allocated copy
// when one exists. The map lookup on a []byte key does not allocate.
func (k *Keys) Intern(raw []byte) string {
	if s, ok := k.m[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if k.m == nil {
		k.m = make(map[string]string)
	}
	if len(k.m) < maxKeys {
		k.m[s] = s
	}
	return s
}
