package locmap

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"indoorloc/internal/geom"
)

func TestAddLookup(t *testing.T) {
	m := New()
	if err := m.Add("kitchen", geom.Pt(5, 35)); err != nil {
		t.Fatal(err)
	}
	p, ok := m.Lookup("kitchen")
	if !ok || p != geom.Pt(5, 35) {
		t.Errorf("Lookup = %v, %v", p, ok)
	}
	if _, ok := m.Lookup("attic"); ok {
		t.Error("phantom lookup")
	}
	// Replace keeps one entry.
	m.Add("kitchen", geom.Pt(6, 36))
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	p, _ = m.Lookup("kitchen")
	if p != geom.Pt(6, 36) {
		t.Errorf("replaced value = %v", p)
	}
}

func TestAddValidation(t *testing.T) {
	m := New()
	if err := m.Add("", geom.Pt(0, 0)); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.Add("  ", geom.Pt(0, 0)); err == nil {
		t.Error("blank name accepted")
	}
	if err := m.Add("x", geom.Pt(math.NaN(), 0)); err == nil {
		t.Error("NaN accepted")
	}
	if err := m.Add("x", geom.Pt(0, math.Inf(1))); err == nil {
		t.Error("Inf accepted")
	}
}

func TestNamesOrder(t *testing.T) {
	m := New()
	m.Add("zeta", geom.Pt(1, 1))
	m.Add("alpha", geom.Pt(2, 2))
	m.Add("mid", geom.Pt(3, 3))
	if got := m.Names(); got[0] != "zeta" || got[1] != "alpha" || got[2] != "mid" {
		t.Errorf("Names = %v", got)
	}
	if got := m.SortedNames(); got[0] != "alpha" || got[2] != "zeta" {
		t.Errorf("SortedNames = %v", got)
	}
}

func TestNearest(t *testing.T) {
	m := New()
	if _, _, ok := m.Index().Nearest(geom.Pt(0, 0)); ok {
		t.Error("empty map returned a nearest")
	}
	m.Add("a", geom.Pt(0, 0))
	m.Add("b", geom.Pt(10, 0))
	name, p, ok := m.Index().Nearest(geom.Pt(2, 1))
	if !ok || name != "a" || p != geom.Pt(0, 0) {
		t.Errorf("Nearest = %q %v %v", name, p, ok)
	}
	// Tie: equidistant → lexically smaller name.
	name, _, _ = m.Index().Nearest(geom.Pt(5, 0))
	if name != "a" {
		t.Errorf("tie break = %q, want a", name)
	}
	// The tie-break is lexical, not insertion order.
	m.Add("0-late", geom.Pt(10, 0))
	if name, _, _ = m.Index().Nearest(geom.Pt(5, 0)); name != "0-late" {
		t.Errorf("tie break = %q, want 0-late", name)
	}
	// Replacing a point moves the entry it names; an index taken before
	// the change keeps the old point.
	before := m.Index()
	m.Add("b", geom.Pt(3, 0))
	if name, p, _ = m.Index().Nearest(geom.Pt(4, 0)); name != "b" || p != geom.Pt(3, 0) {
		t.Errorf("after replace: Nearest = %q %v", name, p)
	}
	if p, _ := before.Lookup("b"); p != geom.Pt(10, 0) {
		t.Errorf("index taken before the replace sees b at %v", p)
	}
}

func TestReadBasic(t *testing.T) {
	in := `# location map v1
kitchen	5.0	35.0
center of hallway	25	20
room D22	45.0	10.5
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	p, ok := m.Lookup("center of hallway")
	if !ok || p != geom.Pt(25, 20) {
		t.Errorf("hallway = %v %v", p, ok)
	}
	p, _ = m.Lookup("room D22")
	if p != geom.Pt(45, 10.5) {
		t.Errorf("D22 = %v", p)
	}
}

func TestReadSpaceSeparated(t *testing.T) {
	// Space-separated with a multi-word name: last two fields are
	// coordinates, the rest joins into the name.
	in := "master bedroom 10 20\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Lookup("master bedroom"); !ok || p != geom.Pt(10, 20) {
		t.Errorf("lookup = %v %v", p, ok)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"onlyname\n",
		"name 1\n",
		"name x 2\n",
		"name 1 y\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	if _, err := Read(strings.NewReader("# nothing\n")); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New()
	m.Add("kitchen", geom.Pt(5, 35))
	m.Add("room D22", geom.Pt(45, 10.5))
	m.Add("center of hallway", geom.Pt(25, 20))
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != m.Len() {
		t.Fatalf("Len = %d", back.Len())
	}
	for _, name := range m.Names() {
		want, _ := m.Lookup(name)
		got, ok := back.Lookup(name)
		if !ok || got != want {
			t.Errorf("%s: %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// Insertion order preserved through the file.
	if names := back.Names(); names[0] != "kitchen" || names[2] != "center of hallway" {
		t.Errorf("order = %v", names)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loc.map")
	m := New()
	m.Add("porch", geom.Pt(0, 0))
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := back.Lookup("porch"); !ok || p != geom.Pt(0, 0) {
		t.Errorf("file round trip = %v %v", p, ok)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.map")); err == nil {
		t.Error("missing file accepted")
	}
}
