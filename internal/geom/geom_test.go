package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Fatalf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Len(); got != 5 {
		t.Fatalf("Len = %v", got)
	}
	u := v.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Fatalf("Unit length = %v", u.Len())
	}
	if (Vec{}).Unit() != (Vec{}) {
		t.Fatal("Unit of zero vector should be zero")
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Point{1, 1}).Add(Vec{2, 3}); got != (Point{3, 4}) {
		t.Fatalf("Add = %v", got)
	}
	if got := (Point{3, 4}).Sub(Point{1, 1}); got != (Vec{2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestFromAngle(t *testing.T) {
	for _, theta := range []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2} {
		v := FromAngle(theta)
		if math.Abs(v.Len()-1) > 1e-12 {
			t.Fatalf("FromAngle(%v) not unit: %v", theta, v)
		}
	}
	v := FromAngle(0)
	if math.Abs(v.X-1) > 1e-12 || math.Abs(v.Y) > 1e-12 {
		t.Fatalf("FromAngle(0) = %v", v)
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Width() != 10 || r.Height() != 10 {
		t.Fatalf("Square dims: %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{11, 5}) || r.Contains(Point{5, -0.1}) {
		t.Fatal("Contains wrong")
	}
	if got := r.Clamp(Point{-3, 12}); got != (Point{0, 10}) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestBounceStaysInArena(t *testing.T) {
	r := Square(100)
	f := func(px, py, vx, vy float64) bool {
		p := r.Clamp(Point{math.Abs(math.Mod(px, 100)), math.Abs(math.Mod(py, 100))})
		v := Vec{math.Mod(vx, 500), math.Mod(vy, 500)}
		if math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return true
		}
		np, nv := r.Bounce(p, v)
		return r.Contains(np) && math.Abs(nv.X) == math.Abs(v.X) && math.Abs(nv.Y) == math.Abs(v.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBounceReflects(t *testing.T) {
	r := Square(10)
	p, v := r.Bounce(Point{9, 5}, Vec{3, 0})
	if p != (Point{8, 5}) {
		t.Fatalf("position after bounce = %v, want (8,5)", p)
	}
	if v != (Vec{-3, 0}) {
		t.Fatalf("velocity after bounce = %v, want (-3,0)", v)
	}
	// No wall crossing: velocity unchanged.
	p, v = r.Bounce(Point{5, 5}, Vec{1, 1})
	if p != (Point{6, 6}) || v != (Vec{1, 1}) {
		t.Fatalf("straight move changed: %v %v", p, v)
	}
}

func TestBounceDegenerateRect(t *testing.T) {
	r := Rect{5, 5, 5, 5}
	p, v := r.Bounce(Point{5, 5}, Vec{10, -10})
	if p != (Point{5, 5}) || v != (Vec{}) {
		t.Fatalf("degenerate bounce = %v %v", p, v)
	}
}

// bruteWithin is the O(n) reference implementation for Grid.Within.
func bruteWithin(pos []Point, p Point, r float64, exclude int) map[int32]bool {
	out := map[int32]bool{}
	for id, q := range pos {
		if id == exclude {
			continue
		}
		if q.Dist2(p) <= r*r {
			out[int32(id)] = true
		}
	}
	return out
}

func TestGridMatchesBruteForce(t *testing.T) {
	s := rng.New(2024)
	arena := Square(100)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(200)
		pos := make([]Point, n)
		for i := range pos {
			pos[i] = Point{s.Range(0, 100), s.Range(0, 100)}
		}
		cell := s.Range(1, 30)
		g := NewGrid(arena, n, cell)
		g.Rebuild(pos)
		for q := 0; q < 20; q++ {
			p := Point{s.Range(0, 100), s.Range(0, 100)}
			r := s.Range(0, 40)
			exclude := s.Intn(n)
			got := g.Within(p, r, exclude, nil)
			want := bruteWithin(pos, p, r, exclude)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d ids, want %d (r=%v cell=%v)", trial, len(got), len(want), r, cell)
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("trial %d: unexpected id %d", trial, id)
				}
			}
		}
	}
}

func TestGridRebuildReuse(t *testing.T) {
	arena := Square(10)
	g := NewGrid(arena, 3, 2)
	g.Rebuild([]Point{{1, 1}, {2, 2}, {9, 9}})
	first := g.Within(Point{1, 1}, 2, -1, nil)
	if len(first) != 2 {
		t.Fatalf("first query found %d, want 2", len(first))
	}
	// Rebuild with items moved away; stale entries must be gone.
	g.Rebuild([]Point{{9, 9}, {8, 8}, {7, 7}})
	second := g.Within(Point{1, 1}, 2, -1, nil)
	if len(second) != 0 {
		t.Fatalf("stale entries after rebuild: %v", second)
	}
}

func TestGridGrowsWithMoreItems(t *testing.T) {
	g := NewGrid(Square(10), 2, 2)
	pos := []Point{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	g.Rebuild(pos) // more items than initial n
	got := g.Within(Point{0, 0}, 100, -1, nil)
	if len(got) != 4 {
		t.Fatalf("grid lost items on growth: %d", len(got))
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(Square(10), 1, 2)
	g.Rebuild([]Point{{5, 5}})
	if got := g.Within(Point{5, 5}, -1, -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestGridZeroCellDoesNotPanic(t *testing.T) {
	g := NewGrid(Square(10), 1, 0)
	g.Rebuild([]Point{{5, 5}})
	if got := g.Within(Point{5, 5}, 1, -1, nil); len(got) != 1 {
		t.Fatalf("zero cell side broke queries: %v", got)
	}
}

func BenchmarkGridRebuild300(b *testing.B) {
	s := rng.New(1)
	pos := make([]Point, 300)
	for i := range pos {
		pos[i] = Point{s.Range(0, 100), s.Range(0, 100)}
	}
	g := NewGrid(Square(100), 300, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Rebuild(pos)
	}
}

func BenchmarkGridWithin(b *testing.B) {
	s := rng.New(1)
	pos := make([]Point, 300)
	for i := range pos {
		pos[i] = Point{s.Range(0, 100), s.Range(0, 100)}
	}
	g := NewGrid(Square(100), 300, 12)
	g.Rebuild(pos)
	buf := make([]int32, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(pos[i%300], 12, i%300, buf[:0])
	}
}

// TestGridReserveBucketsNoSteadyStateGrowth pins ReserveBuckets' purpose:
// after reserving for the item count, single-node Update churn must not
// grow any cell bucket, so incremental stepping stays allocation-free.
func TestGridReserveBucketsNoSteadyStateGrowth(t *testing.T) {
	const n = 200
	s := rng.New(9)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{s.Range(0, 100), s.Range(0, 100)}
	}
	g := NewGrid(Square(100), n, 10)
	g.ReserveBuckets(n)
	g.Rebuild(pos)
	avg := testing.AllocsPerRun(100, func() {
		for id := int32(0); id < n; id++ {
			p := Point{s.Range(0, 100), s.Range(0, 100)}
			g.Update(id, p)
		}
	})
	if avg > 0.1 {
		t.Fatalf("Update churn allocates %v per sweep after ReserveBuckets, want ~0", avg)
	}
}
