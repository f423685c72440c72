package jsonscan

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestString(t *testing.T) {
	for _, c := range []struct {
		in   string
		i    int
		raw  string
		next int
		ok   bool
	}{
		{`"abc"`, 0, "abc", 5, true},
		{`""`, 0, "", 2, true},
		{`x "ab":1`, 2, "ab", 6, true},
		{`"a b~"`, 0, "a b~", 6, true},
		{`"a\"b"`, 0, "", 0, false},       // escapes go to encoding/json
		{"\"a\\u0041\"", 0, "", 0, false}, // so do unicode escapes
		{"\"a\nb\"", 0, "", 0, false},     // a raw control character
		{`"é"`, 0, "", 0, false},          // non-ASCII
		{`"abc`, 0, "", 0, false},         // unterminated
		{`abc`, 0, "", 0, false},          // not a string
		{``, 0, "", 0, false},
	} {
		raw, next, ok := String([]byte(c.in), c.i)
		if string(raw) != c.raw || next != c.next || ok != c.ok {
			t.Errorf("String(%q, %d) = %q, %d, %v; want %q, %d, %v", c.in, c.i, raw, next, ok, c.raw, c.next, c.ok)
		}
	}
}

func TestNumber(t *testing.T) {
	for _, c := range []struct {
		in   string
		v    float64
		next int
		ok   bool
	}{
		{"0", 0, 1, true},
		{"-0", math.Copysign(0, -1), 2, true},
		{"-44.5,", -44.5, 5, true},
		{"12.5e3}", 12500, 6, true},
		{"1E+2", 100, 4, true},
		{"25e-1", 2.5, 5, true},
		{"1e-400", 0, 6, true}, // underflow rounds to zero, as in encoding/json
		{"01", 0, 1, true},     // a leading zero ends the number; the caller refuses the '1'
		{"-01", math.Copysign(0, -1), 2, true},
		{"+1", 0, 0, false},
		{".5", 0, 0, false},
		{"1.", 0, 0, false},
		{"1.e2", 0, 0, false},
		{"1e", 0, 0, false},
		{"1e+", 0, 0, false},
		{"-", 0, 0, false},
		{"", 0, 0, false},
		{"1e400", 0, 0, false},  // overflow
		{"-1e400", 0, 0, false}, // overflow
		{"NaN", 0, 0, false},
	} {
		v, next, ok := Number([]byte(c.in), 0)
		if math.Float64bits(v) != math.Float64bits(c.v) || next != c.next || ok != c.ok {
			t.Errorf("Number(%q) = %v, %d, %v; want %v, %d, %v", c.in, v, next, ok, c.v, c.next, c.ok)
		}
	}
}

func TestFlatObject(t *testing.T) {
	for _, c := range []struct {
		in   string
		i    int
		want map[string]float64
		next int
		ok   bool
	}{
		{`{}`, 0, map[string]float64{}, 2, true},
		{`{ }`, 0, map[string]float64{}, 3, true},
		{`x{"a":1, "b" : -2.5 }`, 1, map[string]float64{"a": 1, "b": -2.5}, 21, true},
		{`{"a":1,"a":2}`, 0, map[string]float64{"a": 2}, 13, true}, // the last value wins
		{`{"a":"x"}`, 0, map[string]float64{}, 5, false},           // a string value
		{`{"a":true}`, 0, map[string]float64{}, 5, false},
		{`{"a":1,"b":null}`, 0, map[string]float64{"a": 1}, 11, false}, // partly filled
		{`{"a":1,}`, 0, map[string]float64{"a": 1}, 7, false},          // trailing comma
		{`{"a":1`, 0, map[string]float64{"a": 1}, 6, false},            // unterminated
		{`{"a\n":1}`, 0, map[string]float64{}, 1, false},               // escaped key
		{`[]`, 0, map[string]float64{}, 0, false},
	} {
		var keys Keys
		m := map[string]float64{}
		next, ok := FlatObject([]byte(c.in), c.i, &keys, m)
		if next != c.next || ok != c.ok || !maps.Equal(m, c.want) {
			t.Errorf("FlatObject(%q, %d) = %d, %v, %v; want %d, %v, %v", c.in, c.i, next, ok, m, c.next, c.ok, c.want)
		}
	}
}

func TestMembers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{`{}`, 1},
		{`{"a":1}`, 1},
		{`{"a":1,"b":2,"c":3} trailing,,,`, 3}, // stops at the first '}'
		{`{"a,b":1}`, 2},                       // a ',' in a key miscounts
		{`{` + strings.Repeat(",", 1000) + `}`, maxMembers},
		{strings.Repeat(",", 63), maxMembers},
	} {
		if got := Members([]byte(c.in), 0); got != c.want {
			t.Errorf("Members(%.20q…) = %d, want %d", c.in, got, c.want)
		}
	}
	if maxMembers != 64 {
		t.Errorf("maxMembers = %d, want 64", maxMembers)
	}
}

func TestKeysIntern(t *testing.T) {
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	var k Keys
	first := k.Intern([]byte("00:02:2d:00:00:0a"))
	if again := k.Intern([]byte("00:02:2d:00:00:0a")); again != first || !same(again, first) {
		t.Error("a repeated key was not interned")
	}
	for i := len(k.m); i < maxKeys; i++ {
		k.Intern([]byte(fmt.Sprintf("key-%d", i)))
	}
	if len(k.m) != maxKeys || maxKeys != 4096 {
		t.Fatalf("table holds %d keys, cap %d; want 4096", len(k.m), maxKeys)
	}
	// Past the cap a key is still returned right, but not kept.
	a := k.Intern([]byte("late"))
	b := k.Intern([]byte("late"))
	if a != "late" || b != "late" || same(a, b) || len(k.m) != maxKeys {
		t.Errorf("past the cap: %q, %q, shared %v, table %d", a, b, same(a, b), len(k.m))
	}
	if got := k.Intern([]byte("00:02:2d:00:00:0a")); !same(got, first) {
		t.Error("a key interned before the cap is no longer shared")
	}
}
