package locmap

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"indoorloc/internal/geom"
)

// Index is the immutable, query side of a location map: names sorted
// lexically, their points in parallel, and a uniform grid over the
// points that answers Nearest without scanning every name.
//
// The grid is two int32 arrays filled by a counting sort, so building
// an Index hashes no string and allocates nothing per location. An
// Index built over a compiled radio-map view (NewIndex on the view's
// Names and Pos) aliases those slices: it shares their lifetime, and
// for a memory-mapped artifact must not outlive the mapping.
//
// An Index is safe for unsynchronised concurrent reads.
type Index struct {
	names []string
	pts   []geom.Point

	// The grid: cols×rows square cells of side cell, anchored at
	// (minX, minY). Cell c = row*cols + col holds the points
	// cellIdx[cellStart[c]:cellStart[c+1]], in ascending index order.
	minX, minY float64
	cell, inv  float64
	cols, rows int
	cellStart  []int32
	cellIdx    []int32
	// slack widens every cell boundary in the search's stopping bound:
	// it absorbs the rounding of a point's cell assignment and of the
	// boundary coordinates, both far below it.
	slack float64
}

// pointsPerCell is the grid's target occupancy.
const pointsPerCell = 2

// smallIndex is the size up to which the grid is a single cell, which
// a query scans in place: the cost of the plain scan, with no ring
// arithmetic.
const smallIndex = 64

// NewIndex builds an index over parallel names and points. Names must
// be non-empty and strictly ascending (sorted and unique), and every
// point finite; the slices are aliased, not copied, and must not be
// mutated afterwards. A compiled radio-map view's Names and Pos meet
// these terms as built.
func NewIndex(names []string, pts []geom.Point) (*Index, error) {
	if len(names) != len(pts) {
		return nil, fmt.Errorf("locmap: %d names but %d points", len(names), len(pts))
	}
	if len(names) > math.MaxInt32 {
		return nil, fmt.Errorf("locmap: %d locations overflow the index", len(names))
	}
	if len(names) > 0 && names[0] == "" {
		return nil, errors.New("locmap: empty location name")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return nil, fmt.Errorf("locmap: names not strictly ascending at %q, %q", names[i-1], names[i])
		}
	}
	x := &Index{names: names, pts: pts}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("locmap: %q has non-finite coordinates %v", names[i], p)
		}
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	x.grid(minX, minY, maxX, maxY)
	return x, nil
}

// grid sizes the cells for about pointsPerCell points each over the
// bounding box and fills them by counting sort.
func (x *Index) grid(minX, minY, maxX, maxY float64) {
	n := len(x.pts)
	x.minX, x.minY, x.cell, x.cols, x.rows = minX, minY, 1, 1, 1
	if n > smallIndex {
		w, h := maxX-minX, maxY-minY
		target := float64(n / pointsPerCell)
		cell := math.Sqrt(w/target) * math.Sqrt(h)
		if !(cell > 0) || w/cell > target || h/cell > target {
			// A degenerate box (a line, or one far longer than wide) is
			// cut along its long side only.
			cell = max(w, h) / target
		}
		// Boxes too small or too large for float cell arithmetic (and
		// NaN from an overflowed width) keep the single cell.
		if cw, ch := w/cell, h/cell; cell >= 1e-290 && cw <= target && ch <= target {
			x.cell, x.inv = cell, 1/cell
			x.cols, x.rows = int(cw)+1, int(ch)+1
		}
	}
	if x.inv > 0 {
		mag := max(math.Abs(minX), math.Abs(maxX), math.Abs(minY), math.Abs(maxY))
		x.slack = 1e-9 * (x.cell + mag)
	}
	x.cellStart = make([]int32, x.cols*x.rows+1)
	x.cellIdx = make([]int32, n)
	for _, p := range x.pts {
		x.cellStart[x.cellOf(p)+1]++
	}
	for c := 1; c < len(x.cellStart); c++ {
		x.cellStart[c] += x.cellStart[c-1]
	}
	// Placing points in index order leaves each cell ascending; the
	// starts shift up by one cell as they fill and are restored after.
	for i, p := range x.pts {
		c := x.cellOf(p)
		x.cellIdx[x.cellStart[c]] = int32(i)
		x.cellStart[c]++
	}
	copy(x.cellStart[1:], x.cellStart[:len(x.cellStart)-1])
	x.cellStart[0] = 0
}

// cellOf returns the cell of a point inside the bounding box.
func (x *Index) cellOf(p geom.Point) int {
	return x.clampRow(p.Y)*x.cols + x.clampCol(p.X)
}

// clampCol returns the column holding coordinate v, clamped to the
// grid; NaN clamps to 0.
func (x *Index) clampCol(v float64) int {
	f := (v - x.minX) * x.inv
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(x.cols-1):
		return x.cols - 1
	}
	return int(f)
}

func (x *Index) clampRow(v float64) int {
	f := (v - x.minY) * x.inv
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(x.rows-1):
		return x.rows - 1
	}
	return int(f)
}

// Index returns the map's query index. It copies the map's names
// (sorted) and points, so later changes to m do not reach it.
func (m *Map) Index() *Index {
	names := m.SortedNames()
	pts := make([]geom.Point, len(names))
	for i, name := range names {
		pts[i] = m.points[m.index[name]]
	}
	x, err := NewIndex(names, pts)
	if err != nil {
		// Add admits only unique, non-empty names and finite points.
		panic(err)
	}
	return x
}

// Len returns the number of locations.
func (x *Index) Len() int { return len(x.names) }

// Lookup returns the coordinates for name.
func (x *Index) Lookup(name string) (geom.Point, bool) {
	i := sort.SearchStrings(x.names, name)
	if i == len(x.names) || x.names[i] != name {
		return geom.Point{}, false
	}
	return x.pts[i], true
}

// Nearest returns the named location closest to p, or false for an
// empty index. The answer is the minimum of p.DistSq over the points,
// ties broken toward the lexically smaller name — exactly what a scan
// of every location returns, for any p.
//
// The search visits the grid in square rings around p's cell and
// stops once every unvisited cell is farther from p than the best
// point found, by a margin covering float rounding. Only then are the
// remaining points provably unable to beat or tie it.
//
//loclint:hotpath
func (x *Index) Nearest(p geom.Point) (string, geom.Point, bool) {
	if len(x.names) == 0 || p.X != p.X || p.Y != p.Y {
		// Every distance to a NaN query is NaN, which no scan keeps.
		return "", geom.Point{}, false
	}
	best, bestD := len(x.pts), math.Inf(1)
	if len(x.cellStart) == 2 {
		// One cell holds every point in index order: scan them in place.
		for i, q := range x.pts {
			d := p.DistSq(q)
			if d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
		return x.names[best], x.pts[best], true
	}
	cx, cy := x.clampCol(p.X), x.clampRow(p.Y)
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		for j := max(y0, 0); j <= min(y1, x.rows-1); j++ {
			row := j * x.cols
			if j == y0 || j == y1 {
				for i := max(x0, 0); i <= min(x1, x.cols-1); i++ {
					best, bestD = x.scanCell(row+i, p, best, bestD)
				}
				continue
			}
			if x0 >= 0 {
				best, bestD = x.scanCell(row+x0, p, best, bestD)
			}
			if x1 < x.cols {
				best, bestD = x.scanCell(row+x1, p, best, bestD)
			}
		}
		if x0 <= 0 && x1 >= x.cols-1 && y0 <= 0 && y1 >= x.rows-1 {
			break // every cell visited
		}
		// lb bounds from below the distance from p to any cell outside
		// the rings visited so far.
		lb := math.Inf(1)
		if x0 > 0 {
			lb = min(lb, p.X-(x.minX+float64(x0)*x.cell))
		}
		if x1 < x.cols-1 {
			lb = min(lb, x.minX+float64(x1+1)*x.cell-p.X)
		}
		if y0 > 0 {
			lb = min(lb, p.Y-(x.minY+float64(y0)*x.cell))
		}
		if y1 < x.rows-1 {
			lb = min(lb, x.minY+float64(y1+1)*x.cell-p.Y)
		}
		// The relative margin covers the rounding of lb² and of the
		// scan's own DistSq, so a point beyond lb can neither beat nor
		// tie bestD once this holds.
		if lb -= x.slack; lb > 0 && lb*lb > bestD*(1+1e-12) {
			break
		}
	}
	// Every point was visited unless one was found, and a finite query
	// against finite points always finds one; an infinite query's
	// distances are all +Inf, which the first point ties.
	return x.names[best], x.pts[best], true
}

// scanCell folds cell c's points into the running best. Names are
// sorted, so the lexical tie-break is the lower index; best starts
// past the last index, so the first point always ties +Inf.
func (x *Index) scanCell(c int, p geom.Point, best int, bestD float64) (int, float64) {
	for _, i := range x.cellIdx[x.cellStart[c]:x.cellStart[c+1]] {
		d := p.DistSq(x.pts[i])
		if d < bestD || (d == bestD && int(i) < best) {
			best, bestD = int(i), d
		}
	}
	return best, bestD
}
