package plaxton

import "math"

// Exact routing-table builder.
//
// Slot (l, d) of node x holds the closest live nodes that share x's low
// l digits and have digit d at position l: the primary plus
// backupsPerEntry backups, or just the backups in x's own-digit
// (loopback) slot.  Offering every node to every other node finds them
// in O(n²).  The builder instead partitions the live nodes recursively
// by ID digit, so the candidates for slot (l, d) of every node in a
// prefix bucket are exactly one child bucket, and answers "k nearest
// members of this child" per node: from a uniform grid over the child's
// plane positions when the child is large, by scanning it when small.
// Buckets of at most bruteMax nodes finish all their remaining levels
// by pairwise offers.  That is O(n log n) overall.
//
// The result is identical to offering every live node in ascending
// index order.  The nearest set is ranked by (dist, index) and keeps
// every candidate tied with the k-th distance.  With distinct distances
// the slot is that set in distance order; otherwise the set is offered
// to the slot in ascending index order, so even exact distance ties
// resolve as the one-by-one offers would.  Candidates farther than the
// k-th distance can never end up in a slot, nor change how the nearer
// ones land.

// bruteMax is the size at or below which a bucket fills its remaining
// levels by pairwise offers, and a child bucket answers nearest-member
// queries by a scan instead of a grid.
const bruteMax = 48

// rebuild resets every live node's table to its loopbacks and fills it
// from the live nodes.  Down nodes' tables are left as they are.
func (m *Mesh) rebuild() {
	live := make([]int32, 0, len(m.nodes))
	for i, n := range m.nodes {
		if !n.Down {
			m.resetTable(n)
			live = append(live, int32(i))
		}
	}
	b := builder{m: m}
	b.bucket(live, 0)
}

type builder struct {
	m    *Mesh
	near nearSet
	g    grid
}

// bucket fills levels level.. of members, the live nodes (in ascending
// index order) that share their low `level` digits.
func (b *builder) bucket(members []int32, level int) {
	m := b.m
	if len(members) <= 1 || level >= m.levels {
		return
	}
	if len(members) <= bruteMax {
		for _, i := range members {
			for _, j := range members {
				if i != j {
					m.offerLink(int(i), int(j), level)
				}
			}
		}
		return
	}
	// Stable partition by digit `level`: children stay index-ordered.
	var off [Base + 1]int
	for _, i := range members {
		off[m.nodes[i].ID.Digit(level)+1]++
	}
	for d := 1; d <= Base; d++ {
		off[d] += off[d-1]
	}
	kids := make([]int32, len(members))
	next := off
	for _, i := range members {
		d := m.nodes[i].ID.Digit(level)
		kids[next[d]] = i
		next[d]++
	}
	for d := 0; d < Base; d++ {
		if kid := kids[off[d]:off[d+1]]; len(kid) > 0 {
			b.link(members, kid, level, d)
		}
	}
	for d := 0; d < Base; d++ {
		b.bucket(kids[off[d]:off[d+1]], level+1)
	}
}

// link fills slot (level, d) of every member from kid, the members
// whose digit `level` is d.
func (b *builder) link(members, kid []int32, level, d int) {
	m := b.m
	useGrid := len(kid) > bruteMax
	if useGrid {
		b.g.build(m, kid)
	}
	for _, i := range members {
		x := m.nodes[i]
		loopback := int(x.ID.Digit(level)) == d
		k := 1 + backupsPerEntry
		if loopback {
			k = backupsPerEntry
		}
		b.near.reset(k)
		if useGrid {
			b.g.nearest(m, int(i), &b.near)
		} else {
			for _, j := range kid {
				if j != i {
					b.near.add(m.dist(int(i), int(j)), j)
				}
			}
		}
		b.near.fill(m, &x.table[level][d], int(i), loopback)
	}
}

// near is one candidate link and its distance from the querying node.
type near struct {
	d float64
	j int32
}

// nearSet collects the k nearest candidates by (dist, index), plus any
// tied with the k-th distance.
type nearSet struct {
	k   int
	c   []near // sorted by (d, j)
	ids []int32
}

func (s *nearSet) reset(k int) {
	s.k = k
	s.c = s.c[:0]
}

// bound returns the k-th smallest distance once k candidates are held.
func (s *nearSet) bound() (float64, bool) {
	if len(s.c) < s.k {
		return 0, false
	}
	return s.c[s.k-1].d, true
}

func (s *nearSet) add(d float64, j int32) {
	if kd, ok := s.bound(); ok && d > kd {
		return
	}
	s.c = append(s.c, near{d, j})
	for i := len(s.c) - 1; i > 0; i-- {
		p := s.c[i-1]
		if p.d < d || (p.d == d && p.j < j) {
			break
		}
		s.c[i], s.c[i-1] = p, s.c[i]
	}
	if len(s.c) > s.k {
		kd := s.c[s.k-1].d
		for s.c[len(s.c)-1].d > kd {
			s.c = s.c[:len(s.c)-1]
		}
	}
}

// fill links the held candidates into slot e of node i, which holds
// only its loopback (if any).  With distinct distances the slot is the
// candidates in distance order; otherwise they are offered one by one
// in ascending index, so ties resolve exactly as in an all-pairs build.
func (s *nearSet) fill(m *Mesh, e *entry, i int, loopback bool) {
	distinct := true
	for k := 1; k < len(s.c); k++ {
		distinct = distinct && s.c[k-1].d < s.c[k].d
	}
	if !distinct {
		s.ids = s.ids[:0]
		for _, c := range s.c {
			s.ids = append(s.ids, c.j)
			for k := len(s.ids) - 1; k > 0 && s.ids[k] < s.ids[k-1]; k-- {
				s.ids[k], s.ids[k-1] = s.ids[k-1], s.ids[k]
			}
		}
		for _, j := range s.ids {
			m.offer(e, i, int(j), loopback)
		}
		return
	}
	c := s.c
	if !loopback && len(c) > 0 {
		e.primary, c = c[0].j, c[1:]
	}
	for k, n := range c {
		e.backups[k] = n.j
	}
}

// grid buckets a child's members into square cells over their bounding
// box, about two members per cell.
type grid struct {
	x0, y0 float64 // bounding-box corner
	w      float64 // cell side
	tol    float64 // slack that absorbs rounding in cell bounds
	nx, ny int
	start  []int32 // cell c holds items[start[c]:start[c+1]]
	items  []int32
	fill   []int32
}

func (g *grid) build(m *Mesh, kid []int32) {
	minx, maxx := m.xs[kid[0]], m.xs[kid[0]]
	miny, maxy := m.ys[kid[0]], m.ys[kid[0]]
	for _, j := range kid[1:] {
		minx, maxx = math.Min(minx, m.xs[j]), math.Max(maxx, m.xs[j])
		miny, maxy = math.Min(miny, m.ys[j]), math.Max(maxy, m.ys[j])
	}
	spanx, spany := maxx-minx, maxy-miny
	side := int(math.Sqrt(float64(len(kid)) / 2))
	if side < 1 {
		side = 1
	}
	g.x0, g.y0 = minx, miny
	g.w = math.Max(spanx, spany) / float64(side)
	if !(g.w > 0) {
		g.w = 1
	}
	g.tol = 1e-9 * (math.Abs(minx) + math.Abs(miny) + spanx + spany + 1)
	g.nx, g.ny = int(spanx/g.w)+1, int(spany/g.w)+1
	cells := g.nx * g.ny
	g.start = resize(g.start, cells+1)
	g.fill = resize(g.fill, cells)
	g.items = resize(g.items, len(kid))
	for c := range g.start {
		g.start[c] = 0
	}
	for _, j := range kid {
		g.start[g.cell(m.xs[j], m.ys[j])+1]++
	}
	for c := 1; c <= cells; c++ {
		g.start[c] += g.start[c-1]
	}
	copy(g.fill, g.start[:cells])
	for _, j := range kid {
		c := g.cell(m.xs[j], m.ys[j])
		g.items[g.fill[c]] = j
		g.fill[c]++
	}
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// coord maps a position to its cell column (or row), clamped to the grid.
func (g *grid) coord(v, v0 float64, n int) int {
	f := (v - v0) / g.w
	switch {
	case f < 1:
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

func (g *grid) cell(x, y float64) int {
	return g.coord(y, g.y0, g.ny)*g.nx + g.coord(x, g.x0, g.nx)
}

// nearest offers node i's nearest grid members (other than i) to s,
// visiting square rings of cells around i's cell until no unvisited
// cell can hold a member within s's bound.
func (g *grid) nearest(m *Mesh, i int, s *nearSet) {
	qx, qy := m.xs[i], m.ys[i]
	cx, cy := g.coord(qx, g.x0, g.nx), g.coord(qy, g.y0, g.ny)
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		for x := max(x0, 0); x <= min(x1, g.nx-1); x++ {
			if y0 >= 0 {
				g.scan(m, i, x, y0, s)
			}
			if y1 < g.ny && y1 != y0 {
				g.scan(m, i, x, y1, s)
			}
		}
		for y := max(y0+1, 0); y <= min(y1-1, g.ny-1); y++ {
			if x0 >= 0 {
				g.scan(m, i, x0, y, s)
			}
			if x1 < g.nx && x1 != x0 {
				g.scan(m, i, x1, y, s)
			}
		}
		// Every unvisited cell lies outside columns x0..x1 or rows
		// y0..y1, so at least this far from the query.
		lb := math.Inf(1)
		if x0 > 0 {
			lb = math.Min(lb, qx-(g.x0+float64(x0)*g.w))
		}
		if x1 < g.nx-1 {
			lb = math.Min(lb, g.x0+float64(x1+1)*g.w-qx)
		}
		if y0 > 0 {
			lb = math.Min(lb, qy-(g.y0+float64(y0)*g.w))
		}
		if y1 < g.ny-1 {
			lb = math.Min(lb, g.y0+float64(y1+1)*g.w-qy)
		}
		if math.IsInf(lb, 1) {
			return // the rings covered the whole grid
		}
		if kd, ok := s.bound(); ok && lb > kd+g.tol {
			return
		}
	}
}

// scan offers the members of cell (x, y) to s.  A member whose squared
// distance clearly exceeds s's bound is skipped without computing its
// distance; the margin keeps the skip conservative under rounding.
func (g *grid) scan(m *Mesh, i, x, y int, s *nearSet) {
	qx, qy := m.xs[i], m.ys[i]
	c := y*g.nx + x
	for _, j := range g.items[g.start[c]:g.start[c+1]] {
		if int(j) == i {
			continue
		}
		if kd, ok := s.bound(); ok && kd > 1e-100 {
			dx, dy := m.xs[j]-qx, m.ys[j]-qy
			if dx*dx+dy*dy > kd*kd*(1+1e-9) {
				continue
			}
		}
		s.add(m.dist(i, int(j)), j)
	}
}
