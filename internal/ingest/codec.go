package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"indoorloc/internal/jsonscan"
)

// The report codec: one encoding of a Report, shared by the WAL
// record, the replication stream (which carries WAL records verbatim)
// and the /train/report request body. AppendReport writes what
// json.Marshal writes, without reflection; ScanReport and DecodeReport
// read the canonical shapes with the shared jsonscan scanner and hand
// everything else to encoding/json, so the bytes on disk and every
// decoded value are exactly those of encoding/json.

// AppendReport appends r's JSON encoding to dst: byte for byte what
// json.Marshal(r) returns — the fields in declaration order with the
// omitempty rules, the observation keys sorted, encoding/json's float
// format and its HTML-safe string escaping. Like json.Marshal it fails
// on a NaN or infinite value; a report that passes Validate never does.
// Into a buffer with room, it allocates only for a report of more than
// 64 APs or with a string that needs escaping.
func AppendReport(dst []byte, r *Report) ([]byte, error) {
	dst = append(dst, '{')
	sep := false
	if r.Name != "" {
		dst = append(dst, `"name":`...)
		dst = appendString(dst, r.Name)
		sep = true
	}
	var err error
	if r.Pos != nil {
		if sep {
			dst = append(dst, ',')
		}
		dst = append(dst, `"pos":{"x":`...)
		if dst, err = appendFloat(dst, r.Pos.X); err != nil {
			return dst, err
		}
		dst = append(dst, `,"y":`...)
		if dst, err = appendFloat(dst, r.Pos.Y); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
		sep = true
	}
	if sep {
		dst = append(dst, ',')
	}
	dst = append(dst, `"observation":`...)
	if r.Observation == nil {
		return append(dst, "null}"...), nil
	}
	// Up to len(stack) keys sort on the stack; a larger report spills.
	var stack [64]string
	keys := stack[:0]
	for b := range r.Observation {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, b := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, b)
		dst = append(dst, ':')
		if dst, err = appendFloat(dst, r.Observation[b]); err != nil {
			return dst, err
		}
	}
	return append(dst, "}}"...), nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves unescaped is copied as is; any other string
// goes through json.Marshal, whose escaping (HTML characters, control
// characters, invalid UTF-8, U+2028/U+2029) it then matches exactly.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest representation that round-trips, in 'f' form, or in 'e'
// form with a one-digit negative exponent unpadded outside [1e-6,
// 1e21).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// ScanReport parses the canonical report object at b[i] into a fresh
// Report: the members name (a plain string), pos (an object of the
// numbers x and y) and observation (an object of plain BSSIDs mapped
// to numbers), each at most once and in any order, with the BSSIDs
// interned through keys and the name through names. The two tables are
// apart so a floor's thousands of location names cannot crowd its
// BSSIDs out of the bounded table. It returns the index past the
// object. ok=false means the object is not in that shape —
// escapes, unknown, repeated or differently-cased names, null — and
// the caller must decode it with encoding/json instead; when ok is
// true the Report is what encoding/json would decode.
func ScanReport(b []byte, i int, keys, names *jsonscan.Keys) (r Report, next int, ok bool) {
	var seen uint8 // bit 0 name, bit 1 pos, bit 2 observation
	i, more, ok := jsonscan.Open(b, i, '{', '}')
	for ok && more {
		var name []byte
		if name, i, ok = jsonscan.Key(b, i); !ok {
			break
		}
		var bit uint8
		switch string(name) {
		case "name":
			bit = 1
			var raw []byte
			if raw, i, ok = jsonscan.String(b, i); ok {
				r.Name = names.Intern(raw)
			}
		case "pos":
			bit = 2
			r.Pos = new(ReportPos)
			i, ok = scanPos(b, i, r.Pos)
		case "observation":
			bit = 4
			r.Observation = make(map[string]float64, jsonscan.Members(b, i))
			i, ok = jsonscan.FlatObject(b, i, keys, r.Observation)
		default:
			return Report{}, i, false
		}
		if !ok || seen&bit != 0 {
			return Report{}, i, false
		}
		seen |= bit
		i, more, ok = jsonscan.Sep(b, i, '}')
	}
	if !ok {
		return Report{}, i, false
	}
	return r, i, true
}

// scanPos parses a report's pos object at b[i] — the numbers x and y,
// each at most once, in any order — into p.
func scanPos(b []byte, i int, p *ReportPos) (next int, ok bool) {
	var seen uint8
	i, more, ok := jsonscan.Open(b, i, '{', '}')
	for ok && more {
		var name []byte
		if name, i, ok = jsonscan.Key(b, i); !ok {
			break
		}
		var v *float64
		var bit uint8
		switch string(name) {
		case "x":
			v, bit = &p.X, 1
		case "y":
			v, bit = &p.Y, 2
		default:
			return i, false
		}
		if seen&bit != 0 {
			return i, false
		}
		seen |= bit
		if *v, i, ok = jsonscan.Number(b, i); !ok {
			break
		}
		i, more, ok = jsonscan.Sep(b, i, '}')
	}
	return i, ok
}

// DecodeReport decodes one report payload — a WAL record or a
// replicated one — interning its BSSIDs through keys and its name
// through names. The canonical shape, which AppendReport writes, takes
// ScanReport; any other payload takes json.Unmarshal, so what decodes,
// what fails and every decoded value are encoding/json's.
func DecodeReport(payload []byte, keys, names *jsonscan.Keys) (Report, error) {
	if r, i, ok := ScanReport(payload, jsonscan.SkipSpace(payload, 0), keys, names); ok && jsonscan.End(payload, i) {
		return r, nil
	}
	var r Report
	if err := json.Unmarshal(payload, &r); err != nil {
		return Report{}, err
	}
	return r, nil
}
