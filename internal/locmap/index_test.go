package locmap

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"indoorloc/internal/geom"
)

// scanNearest is the oracle Index.Nearest must match: a scan of every
// location in the given order keeping the minimum DistSq, ties broken
// toward the lexically smaller name.
func scanNearest(names []string, pts []geom.Point, p geom.Point) (string, geom.Point, bool) {
	best := -1
	bestD := math.Inf(1)
	for i, q := range pts {
		d := p.DistSq(q)
		if d < bestD || (d == bestD && (best < 0 || names[i] < names[best])) {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return "", geom.Point{}, false
	}
	return names[best], pts[best], true
}

// shuffledNames returns n unique names whose lexical order is
// unrelated to their index, so the tie-break is exercised apart from
// insertion order.
func shuffledNames(rng *rand.Rand, n int) []string {
	names := make([]string, n)
	for i, k := range rng.Perm(n) {
		names[i] = fmt.Sprintf("loc-%06d", k)
	}
	return names
}

// buildMap adds the points under their names in the given (insertion)
// order.
func buildMap(t testing.TB, names []string, pts []geom.Point) *Map {
	m := NewSized(len(names))
	for i, name := range names {
		if err := m.Add(name, pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// checkQueries compares the index with the oracle on every query.
func checkQueries(t *testing.T, label string, names []string, pts []geom.Point, queries []geom.Point) {
	t.Helper()
	x := buildMap(t, names, pts).Index()
	for _, q := range queries {
		wn, wp, wok := scanNearest(names, pts, q)
		gn, gp, gok := x.Nearest(q)
		if gn != wn || gok != wok || !samePoint(gp, wp) {
			t.Fatalf("%s: Nearest(%v) = %q %v %v, scan gives %q %v %v", label, q, gn, gp, gok, wn, wp, wok)
		}
	}
}

// samePoint compares bit patterns, so −0 and 0 differ.
func samePoint(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// randomQueries draws queries inside, around and far outside the box
// [lo, hi]², plus every point itself and the midpoints of random pairs
// (which sit equidistant from both).
func randomQueries(rng *rand.Rand, pts []geom.Point, lo, hi float64, n int) []geom.Point {
	span := hi - lo
	qs := make([]geom.Point, 0, 3*n)
	for i := 0; i < n; i++ {
		qs = append(qs,
			geom.Pt(lo-span/2+2*span*rng.Float64(), lo-span/2+2*span*rng.Float64()),
			pts[rng.Intn(len(pts))])
		a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
		qs = append(qs, geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2))
	}
	return qs
}

// TestIndexNearestMatchesScan is the property test: on every map shape
// and query the index answers exactly as the linear scan does.
func TestIndexNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	far := []geom.Point{
		geom.Pt(1e6, 3), geom.Pt(-1e6, -1e6), geom.Pt(5, -1e9), geom.Pt(1e15, 1e15),
		geom.Pt(1e200, 0), geom.Pt(-1e300, 1e300), geom.Pt(math.MaxFloat64, -math.MaxFloat64),
	}
	nonFinite := []geom.Point{
		geom.Pt(math.NaN(), 0), geom.Pt(0, math.NaN()), geom.Pt(math.NaN(), math.NaN()),
		geom.Pt(math.Inf(1), 0), geom.Pt(math.Inf(-1), 5), geom.Pt(3, math.Inf(1)),
		geom.Pt(math.Inf(1), math.Inf(-1)), geom.Pt(math.Inf(1), math.NaN()),
	}

	t.Run("random", func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 7, 30, 64, 65, 66, 100, 257, 1000, 5000, 20000} {
			names := shuffledNames(rng, n)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(200*rng.Float64(), 120*rng.Float64())
			}
			qs := randomQueries(rng, pts, 0, 200, 300)
			qs = append(append(qs, far...), nonFinite...)
			checkQueries(t, fmt.Sprintf("n=%d", n), names, pts, qs)
		}
	})

	t.Run("lattice-ties", func(t *testing.T) {
		// A campus-style lattice: points on cell boundaries, queries on
		// points, edge midpoints and square centres (2- and 4-way ties).
		for _, n := range []int{9, 100, 19881} {
			side := int(math.Sqrt(float64(n)))
			names := shuffledNames(rng, side*side)
			pts := make([]geom.Point, 0, side*side)
			for i := 0; i < side; i++ {
				for j := 0; j < side; j++ {
					pts = append(pts, geom.Pt(float64(i)*5, float64(j)*5))
				}
			}
			var qs []geom.Point
			for k := 0; k < 400; k++ {
				i, j := rng.Intn(side), rng.Intn(side)
				qs = append(qs, geom.Pt(float64(i)*5, float64(j)*5),
					geom.Pt(float64(i)*5+2.5, float64(j)*5), geom.Pt(float64(i)*5+2.5, float64(j)*5+2.5))
			}
			checkQueries(t, fmt.Sprintf("lattice %d", side*side), names, pts, append(qs, far...))
		}
	})

	t.Run("duplicate-positions", func(t *testing.T) {
		// Many names share few positions: every answer is a tie decided
		// by name alone.
		for _, n := range []int{5, 200, 3000} {
			names := shuffledNames(rng, n)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(float64(rng.Intn(4)), float64(rng.Intn(3)))
			}
			checkQueries(t, fmt.Sprintf("dups n=%d", n), names, pts, randomQueries(rng, pts, 0, 4, 200))
		}
		// All points identical.
		names := shuffledNames(rng, 500)
		pts := make([]geom.Point, 500)
		for i := range pts {
			pts[i] = geom.Pt(7, -7)
		}
		checkQueries(t, "all equal", names, pts, append(randomQueries(rng, pts, -10, 10, 50), far...))
	})

	t.Run("collinear", func(t *testing.T) {
		for _, line := range []func(v float64) geom.Point{
			func(v float64) geom.Point { return geom.Pt(v, 3) },   // zero height
			func(v float64) geom.Point { return geom.Pt(-2, v) },  // zero width
			func(v float64) geom.Point { return geom.Pt(v, v/2) }, // diagonal: most cells empty
			func(v float64) geom.Point { return geom.Pt(v*1e6, v*1e-6) },
		} {
			names := shuffledNames(rng, 4000)
			pts := make([]geom.Point, len(names))
			for i := range pts {
				pts[i] = line(1000 * rng.Float64())
			}
			qs := randomQueries(rng, pts, 0, 1000, 300)
			checkQueries(t, fmt.Sprintf("line %v", line(1)), names, pts, append(append(qs, far...), nonFinite...))
		}
	})

	t.Run("negative-and-signed-zero", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		names := shuffledNames(rng, 3000)
		pts := make([]geom.Point, len(names))
		for i := range pts {
			switch i % 5 {
			case 0:
				pts[i] = geom.Pt(negZero, -300*rng.Float64())
			case 1:
				pts[i] = geom.Pt(-300*rng.Float64(), negZero)
			default:
				pts[i] = geom.Pt(-300*rng.Float64(), -300*rng.Float64())
			}
		}
		pts[1] = geom.Pt(0, 0)
		pts[2] = geom.Pt(negZero, negZero)
		qs := randomQueries(rng, pts, -300, 0, 300)
		qs = append(qs, geom.Pt(negZero, negZero), geom.Pt(0, negZero), geom.Pt(negZero, -5))
		checkQueries(t, "negative", names, pts, append(append(qs, far...), nonFinite...))
	})

	t.Run("clusters", func(t *testing.T) {
		// Two dense clusters far apart leave the grid mostly empty.
		names := shuffledNames(rng, 4000)
		pts := make([]geom.Point, len(names))
		for i := range pts {
			off := 0.0
			if i%2 == 1 {
				off = 1e5
			}
			pts[i] = geom.Pt(off+rng.Float64(), off+rng.Float64())
		}
		checkQueries(t, "clusters", names, pts, randomQueries(rng, pts, 0, 1e5, 300))
	})
}

// TestNewIndexRejects pins NewIndex's input contract.
func TestNewIndexRejects(t *testing.T) {
	cases := []struct {
		names []string
		pts   []geom.Point
		want  string
	}{
		{[]string{"a"}, nil, "names but"},
		{[]string{"", "a"}, []geom.Point{{}, {}}, "empty"},
		{[]string{"b", "a"}, []geom.Point{{}, {}}, "ascending"},
		{[]string{"a", "a"}, []geom.Point{{}, {}}, "ascending"},
		{[]string{"a", "b"}, []geom.Point{{}, geom.Pt(math.NaN(), 0)}, "non-finite"},
		{[]string{"a"}, []geom.Point{geom.Pt(0, math.Inf(-1))}, "non-finite"},
	}
	for _, c := range cases {
		if _, err := NewIndex(c.names, c.pts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewIndex(%q, %v) err = %v, want %q", c.names, c.pts, err, c.want)
		}
	}
	x, err := NewIndex(nil, nil)
	if err != nil || x.Len() != 0 {
		t.Fatalf("empty index: %v, %v", x, err)
	}
	if _, _, ok := x.Nearest(geom.Pt(1, 1)); ok {
		t.Error("empty index returned a nearest")
	}
}

// TestIndexAliasesInput checks that NewIndex keeps the caller's slices
// rather than copying them: a compiled view's names and positions are
// served in place.
func TestIndexAliasesInput(t *testing.T) {
	names := []string{"a", "b", "c"}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	x, err := NewIndex(names, pts)
	if err != nil {
		t.Fatal(err)
	}
	if &x.names[0] != &names[0] || &x.pts[0] != &pts[0] {
		t.Error("NewIndex copied its input")
	}
}

func TestIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := shuffledNames(rng, 500)
	pts := make([]geom.Point, len(names))
	for i := range pts {
		pts[i] = geom.Pt(float64(i), -float64(i))
	}
	x := buildMap(t, names, pts).Index()
	if x.Len() != len(names) {
		t.Fatalf("Len = %d", x.Len())
	}
	for i, name := range names {
		if p, ok := x.Lookup(name); !ok || p != pts[i] {
			t.Fatalf("Lookup(%q) = %v %v, want %v", name, p, ok, pts[i])
		}
	}
	for _, name := range []string{"", "loc-", "loc-000500", "zzz"} {
		if _, ok := x.Lookup(name); ok {
			t.Errorf("phantom Lookup(%q)", name)
		}
	}
}

// TestIndexNearestZeroAlloc pins the hot-path budget: a query allocates
// nothing, whatever the map size.
func TestIndexNearestZeroAlloc(t *testing.T) {
	for _, n := range []int{30, 19881} {
		x, queries := benchIndex(n)
		k := 0
		if a := testing.AllocsPerRun(200, func() {
			x.Nearest(queries[k%len(queries)])
			k++
		}); a != 0 {
			t.Errorf("n=%d: Nearest allocates %.1f per call, want 0", n, a)
		}
	}
}

// benchIndex builds an n-entry lattice map shaped like the perfbench
// house (30 entries) and campus (19,881 = 141² entries) venues, with
// queries at training points and at jittered centroids.
func benchIndex(n int) (*Index, []geom.Point) {
	rng := rand.New(rand.NewSource(int64(n)))
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	names := make([]string, n)
	pts := make([]geom.Point, n)
	for i := range names {
		names[i] = fmt.Sprintf("grid-%d-%d", i/cols, i%cols)
		pts[i] = geom.Pt(float64(i%cols)*5, float64(i/cols)*5)
	}
	m := NewSized(n)
	for i := range names {
		m.Add(names[i], pts[i])
	}
	queries := make([]geom.Point, 256)
	for i := range queries {
		q := pts[rng.Intn(n)]
		if i%2 == 1 {
			q = geom.Pt(q.X+5*rng.Float64(), q.Y+5*rng.Float64())
		}
		queries[i] = q
	}
	return m.Index(), queries
}

// BenchmarkNearest compares the grid index with the linear scan it
// replaced, on the house and campus map sizes.
func BenchmarkNearest(b *testing.B) {
	for _, n := range []int{30, 19881} {
		x, queries := benchIndex(n)
		b.Run(fmt.Sprintf("n=%d/index", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.Nearest(queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("n=%d/scan", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scanNearest(x.names, x.pts, queries[i%len(queries)])
			}
		})
	}
}

// FuzzNearest drives the index with fuzzer-chosen points and queries:
// each 4-byte group of data is one point on an int16 lattice scaled
// by scale, and the answer must equal the scan's for any query.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0}, 1.0, 0.5, 0.5)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0}, 1.0, 4.5, 0.0)
	f.Add(make([]byte, 4*100), 3.0, -1.0, 2.0)
	lattice := make([]byte, 0, 4*200)
	for i := 0; i < 200; i++ {
		lattice = append(lattice, byte(i%20), 0, byte(i/20), 0)
	}
	f.Add(lattice, 2.5, 7.5, 11.25)
	f.Add(lattice, 1e-300, 1e300, math.Inf(1))
	f.Add(lattice, 1e300, math.NaN(), 0.0)
	f.Fuzz(func(t *testing.T, data []byte, scale, qx, qy float64) {
		n := min(len(data)/4, 2000)
		names := make([]string, n)
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			// Names descend with the index, so lexical order opposes
			// insertion order.
			names[i] = fmt.Sprintf("p%05d", n-i)
			xi := int16(uint16(data[4*i]) | uint16(data[4*i+1])<<8)
			yi := int16(uint16(data[4*i+2]) | uint16(data[4*i+3])<<8)
			pts[i] = geom.Pt(float64(xi)*scale, float64(yi)*scale)
			if !pts[i].IsFinite() {
				return
			}
		}
		x := buildMap(t, names, pts).Index()
		q := geom.Pt(qx, qy)
		wn, wp, wok := scanNearest(names, pts, q)
		gn, gp, gok := x.Nearest(q)
		if gn != wn || gok != wok || !samePoint(gp, wp) {
			t.Fatalf("Nearest(%v) = %q %v %v, scan gives %q %v %v", q, gn, gp, gok, wn, wp, wok)
		}
	})
}
