package geom

// Grid is a uniform spatial hash over an arena. It answers "which items lie
// within radius r of point p" in expected O(1 + k) time, replacing the
// O(n²) all-pairs scan when rebuilding wireless topologies every step.
//
// Items are dense integer IDs in [0, n). The zero value is not usable;
// construct with NewGrid.
type Grid struct {
	arena    Rect
	cell     float64
	cols     int
	rows     int
	cells    [][]CellEntry // cell index -> items with embedded positions
	pos      []Point       // item id -> position
	occupied []int         // cells touched since the last Rebuild, for fast Reset
	inOcc    []bool        // cell index -> already listed in occupied
}

// CellEntry is one item in a grid cell bucket. The position is embedded so
// distance filters read the bucket sequentially instead of chasing the
// item id into a separate position array — the dominant cost of candidate
// scans at scale. X and Y are exact copies of the item's position.
type CellEntry struct {
	X, Y float64
	ID   int32
}

// NewGrid returns a grid over arena sized for n items with the given cell
// side. A good cell side is the maximum radio range: then any radius-r
// query with r <= cell touches at most 9 cells.
func NewGrid(arena Rect, n int, cell float64) *Grid {
	if cell <= 0 {
		cell = 1
	}
	cols := int(arena.Width()/cell) + 1
	rows := int(arena.Height()/cell) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		arena: arena,
		cell:  cell,
		cols:  cols,
		rows:  rows,
		cells: make([][]CellEntry, cols*rows),
		pos:   make([]Point, n),
		inOcc: make([]bool, cols*rows),
	}
}

// cellIndex returns the flat cell index for p, clamped to the arena.
func (g *Grid) cellIndex(p Point) int {
	cx := int((p.X - g.arena.MinX) / g.cell)
	cy := int((p.Y - g.arena.MinY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Rebuild clears the grid and inserts every position in pos, which is
// indexed by item ID. The slice is copied into the grid's own storage.
func (g *Grid) Rebuild(pos []Point) { g.RebuildMasked(pos, nil) }

// RebuildMasked is Rebuild with an exclusion mask: items with omit[id] set
// are left out of every cell bucket — queries cannot see them — but their
// positions are still recorded, so Pos keeps answering for excluded items
// (world fault injection uses this to make dead nodes invisible without
// losing track of where they froze). A nil omit excludes nothing.
func (g *Grid) RebuildMasked(pos []Point, omit []bool) {
	for _, ci := range g.occupied {
		g.cells[ci] = g.cells[ci][:0]
		g.inOcc[ci] = false
	}
	g.occupied = g.occupied[:0]
	if len(g.pos) < len(pos) {
		g.pos = make([]Point, len(pos))
	}
	g.pos = g.pos[:len(pos)]
	copy(g.pos, pos)
	for id, p := range pos {
		if omit != nil && omit[id] {
			continue
		}
		ci := g.cellIndex(p)
		if !g.inOcc[ci] {
			g.inOcc[ci] = true
			g.occupied = append(g.occupied, ci)
		}
		g.cells[ci] = append(g.cells[ci], CellEntry{X: p.X, Y: p.Y, ID: int32(id)})
	}
}

// Pos returns the position currently stored for item id — the position as
// of the last Rebuild or Update for that item.
func (g *Grid) Pos(id int32) Point { return g.pos[id] }

// Update moves item id to p, relocating it between cell buckets only when
// its cell actually changed — the incremental alternative to a full
// Rebuild when most items are stationary. Bucket order is not preserved
// (swap-remove), so callers that need ordered results must sort; the
// simulator canonicalizes adjacency to sorted NodeID order regardless of
// bucket order, so query order never reaches observable state.
func (g *Grid) Update(id int32, p Point) {
	old := g.pos[id]
	g.pos[id] = p
	oc := g.cellIndex(old)
	nc := g.cellIndex(p)
	e := CellEntry{X: p.X, Y: p.Y, ID: id}
	if oc == nc {
		bucket := g.cells[oc]
		for i := range bucket {
			if bucket[i].ID == id {
				bucket[i] = e
				break
			}
		}
		return
	}
	bucket := g.cells[oc]
	for i := range bucket {
		if bucket[i].ID == id {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			g.cells[oc] = bucket[:last]
			break
		}
	}
	if !g.inOcc[nc] {
		g.inOcc[nc] = true
		g.occupied = append(g.occupied, nc)
	}
	g.cells[nc] = append(g.cells[nc], e)
}

// BoxCellRange returns the inclusive cell-coordinate rectangle covering
// the axis-aligned box [lo, hi], clamped to the arena. Together with Cols
// and CellBucket it lets hot loops iterate raw cell buckets without
// copying candidates into an intermediate slice — the candidate-list scan
// of the incremental topology engine, where one box covers a mover's list
// margin. Flat cell indices are cy*Cols()+cx.
func (g *Grid) BoxCellRange(lo, hi Point) (minCX, maxCX, minCY, maxCY int) {
	minCX = int((lo.X - g.arena.MinX) / g.cell)
	maxCX = int((hi.X - g.arena.MinX) / g.cell)
	minCY = int((lo.Y - g.arena.MinY) / g.cell)
	maxCY = int((hi.Y - g.arena.MinY) / g.cell)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.cols {
		maxCX = g.cols - 1
	}
	if maxCY >= g.rows {
		maxCY = g.rows - 1
	}
	return minCX, maxCX, minCY, maxCY
}

// Cols returns the number of cell columns (the flat-index row stride).
func (g *Grid) Cols() int { return g.cols }

// ReserveBuckets pre-grows every cell bucket to hold roughly twice the
// mean occupancy for items uniformly spread over the grid, so steady-state
// Update churn (a node entering a cell fuller than that cell has ever
// been) stops growing buckets one realloc at a time. Call once before the
// first Rebuild on grids that will be incrementally updated.
func (g *Grid) ReserveBuckets(items int) {
	perCell := 2*items/len(g.cells) + 4
	for ci := range g.cells {
		if cap(g.cells[ci]) < perCell {
			g.cells[ci] = make([]CellEntry, 0, perCell)
		}
	}
}

// CellBucket returns the items stored in the flat cell index ci, with
// their embedded positions. The returned slice is grid-owned and valid
// until the next Update or Rebuild; callers must not modify or retain it.
func (g *Grid) CellBucket(ci int) []CellEntry { return g.cells[ci] }

// Within appends to dst the IDs of all items whose distance to p is at most
// r, excluding the item with ID exclude (pass a negative value to exclude
// nothing), and returns the extended slice. Results are in ascending cell
// order but otherwise unsorted.
func (g *Grid) Within(p Point, r float64, exclude int, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	minCX := int((p.X - r - g.arena.MinX) / g.cell)
	maxCX := int((p.X + r - g.arena.MinX) / g.cell)
	minCY := int((p.Y - r - g.arena.MinY) / g.cell)
	maxCY := int((p.Y + r - g.arena.MinY) / g.cell)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.cols {
		maxCX = g.cols - 1
	}
	if maxCY >= g.rows {
		maxCY = g.rows - 1
	}
	r2 := r * r
	for cy := minCY; cy <= maxCY; cy++ {
		base := cy * g.cols
		for cx := minCX; cx <= maxCX; cx++ {
			for _, e := range g.cells[base+cx] {
				if int(e.ID) == exclude {
					continue
				}
				dx, dy := e.X-p.X, e.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, e.ID)
				}
			}
		}
	}
	return dst
}
