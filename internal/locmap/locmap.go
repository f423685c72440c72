// Package locmap reads and writes location maps: the text files
// pairing application-level location names with plan-frame
// coordinates. The Training Database Generator joins a location map
// against a wi-scan collection to attach coordinates to every
// observation; the Floor Plan Processor's "add location names" feature
// produces the same mapping inside an annotated plan.
//
// # File format
//
// Location maps are line-oriented UTF-8 text:
//
//	# location map v1
//	kitchen	5.0	35.0
//	center of hallway	25.0	20.0
//	room D22	45.0	10.0
//
// Columns are tab-separated: name, x, y (feet in the plan frame).
// Names may contain spaces. '#' lines and blank lines are ignored.
// Space-separated files are accepted when the name has no spaces.
//
// A Map is the mutable builder and the file format. Step 6 of the
// working phase — the nearest name to an estimate — is answered by an
// Index: (*Map).Index converts a map, and NewIndex serves a compiled
// radio-map view's own names and positions without copying them.
package locmap

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"indoorloc/internal/geom"
)

// Map associates location names with coordinates. Query it for the
// nearest name through Index.
type Map struct {
	index  map[string]int // name → its position in order and points
	order  []string       // insertion order for stable writes
	points []geom.Point   // parallel to order
}

// New returns an empty location map.
func New() *Map { return NewSized(0) }

// NewSized returns an empty location map with room for n locations.
func NewSized(n int) *Map {
	return &Map{
		index:  make(map[string]int, n),
		order:  make([]string, 0, n),
		points: make([]geom.Point, 0, n),
	}
}

// ErrEmpty is returned when a location map stream has no entries.
var ErrEmpty = errors.New("locmap: no entries")

// Add inserts or replaces a named location. Empty names and non-finite
// coordinates are rejected.
func (m *Map) Add(name string, p geom.Point) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return errors.New("locmap: empty location name")
	}
	if !p.IsFinite() {
		return fmt.Errorf("locmap: %q has non-finite coordinates %v", name, p)
	}
	if i, exists := m.index[name]; exists {
		m.points[i] = p
		return nil
	}
	m.index[name] = len(m.order)
	m.order = append(m.order, name)
	m.points = append(m.points, p)
	return nil
}

// Lookup returns the coordinates for name.
func (m *Map) Lookup(name string) (geom.Point, bool) {
	i, ok := m.index[name]
	if !ok {
		return geom.Point{}, false
	}
	return m.points[i], true
}

// Len returns the number of locations.
func (m *Map) Len() int { return len(m.order) }

// Names returns the location names in insertion order. The slice is a
// copy.
func (m *Map) Names() []string { return append([]string(nil), m.order...) }

// SortedNames returns the location names sorted lexically.
func (m *Map) SortedNames() []string {
	out := append([]string(nil), m.order...)
	sort.Strings(out)
	return out
}

// Read parses a location map stream.
func Read(r io.Reader) (*Map, error) {
	m := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(strings.TrimRight(sc.Text(), "\r"))
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, x, y, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("locmap: line %d %q: %v", lineNo, line, err)
		}
		if err := m.Add(name, geom.Pt(x, y)); err != nil {
			return nil, fmt.Errorf("locmap: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("locmap: read: %w", err)
	}
	if m.Len() == 0 {
		return nil, ErrEmpty
	}
	return m, nil
}

func parseLine(line string) (name string, x, y float64, err error) {
	var fields []string
	if strings.Contains(line, "\t") {
		fields = strings.Split(line, "\t")
		// Collapse accidental doubled tabs.
		kept := fields[:0]
		for _, f := range fields {
			if strings.TrimSpace(f) != "" {
				kept = append(kept, strings.TrimSpace(f))
			}
		}
		fields = kept
	} else {
		fields = strings.Fields(line)
	}
	if len(fields) < 3 {
		return "", 0, 0, fmt.Errorf("want 3 fields (name x y), got %d", len(fields))
	}
	// The last two fields are coordinates; everything before is name
	// (space-separated names survive this way too).
	xs := fields[len(fields)-2]
	ys := fields[len(fields)-1]
	name = strings.Join(fields[:len(fields)-2], " ")
	x, err = strconv.ParseFloat(xs, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("x: %v", err)
	}
	y, err = strconv.ParseFloat(ys, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("y: %v", err)
	}
	return name, x, y, nil
}

// Write renders the map in canonical tab-separated form, entries in
// insertion order.
func Write(w io.Writer, m *Map) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# location map v1")
	for i, name := range m.order {
		p := m.points[i]
		fmt.Fprintf(bw, "%s\t%g\t%g\n", name, p.X, p.Y)
	}
	return bw.Flush()
}

// ReadFile loads a location map from disk.
func ReadFile(path string) (*Map, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("locmap: %w", err)
	}
	defer fh.Close()
	return Read(fh)
}

// WriteFile saves a location map to disk.
func WriteFile(path string, m *Map) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("locmap: %w", err)
	}
	if err := Write(fh, m); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
