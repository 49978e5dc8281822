package plaxton

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oceanstore/internal/guid"
)

// refMesh is the all-pairs table construction the exact builder
// replaces: every node is offered to every other node in ascending
// index order, O(n²).  It is kept here, self-contained, as the
// reference the builder must reproduce entry for entry.
type refMesh struct {
	ids    []guid.GUID
	xs, ys []float64
	down   []bool
	levels int
	tables [][][Base]refEntry
}

type refEntry struct {
	primary int
	backups []int
}

func newRefMesh(ids []guid.GUID, xs, ys []float64) *refMesh {
	r := &refMesh{levels: neededLevels(len(ids))}
	for i := range ids {
		r.ids = append(r.ids, ids[i])
		r.xs, r.ys = append(r.xs, xs[i]), append(r.ys, ys[i])
		r.down = append(r.down, false)
		r.tables = append(r.tables, r.emptyTable())
	}
	for i := range r.ids {
		r.fill(i)
	}
	return r
}

func (r *refMesh) dist(a, b int) float64 {
	return math.Hypot(r.xs[a]-r.xs[b], r.ys[a]-r.ys[b])
}

func (r *refMesh) emptyTable() [][Base]refEntry {
	t := make([][Base]refEntry, r.levels)
	for l := range t {
		for d := range t[l] {
			t[l][d] = refEntry{primary: -1}
		}
	}
	return t
}

func (r *refMesh) fill(i int) {
	for l := 0; l < r.levels; l++ {
		r.tables[i][l][r.ids[i].Digit(l)] = refEntry{primary: i}
	}
	for j := range r.ids {
		if j != i && !r.down[j] {
			r.offer(i, j)
		}
	}
}

func (r *refMesh) offer(i, j int) {
	match := r.ids[i].MatchingDigits(r.ids[j])
	if match >= r.levels {
		match = r.levels - 1
	}
	for l := 0; l <= match && l < r.levels; l++ {
		d := int(r.ids[j].Digit(l))
		e := &r.tables[i][l][d]
		if e.primary == i && d == int(r.ids[i].Digit(l)) {
			r.insertBackup(e, j, i)
			continue
		}
		if e.primary < 0 {
			e.primary = j
			continue
		}
		if r.dist(i, j) < r.dist(i, e.primary) {
			r.insertBackup(e, e.primary, i)
			e.primary = j
		} else {
			r.insertBackup(e, j, i)
		}
	}
}

func (r *refMesh) insertBackup(e *refEntry, candidate, owner int) {
	for _, b := range e.backups {
		if b == candidate {
			return
		}
	}
	e.backups = append(e.backups, candidate)
	for i := len(e.backups) - 1; i > 0; i-- {
		if r.dist(owner, e.backups[i]) < r.dist(owner, e.backups[i-1]) {
			e.backups[i], e.backups[i-1] = e.backups[i-1], e.backups[i]
		}
	}
	if len(e.backups) > backupsPerEntry {
		e.backups = e.backups[:backupsPerEntry]
	}
}

func (r *refMesh) repair() {
	for i := range r.ids {
		if !r.down[i] {
			r.tables[i] = r.emptyTable()
			r.fill(i)
		}
	}
}

func (r *refMesh) add(id guid.GUID, x, y float64) {
	idx := len(r.ids)
	r.ids, r.xs, r.ys = append(r.ids, id), append(r.xs, x), append(r.ys, y)
	r.down = append(r.down, false)
	r.tables = append(r.tables, r.emptyTable())
	if l := neededLevels(len(r.ids)); l > r.levels {
		r.levels = l
		for i := range r.tables {
			for len(r.tables[i]) < l {
				var row [Base]refEntry
				for d := range row {
					row[d] = refEntry{primary: -1}
				}
				row[r.ids[i].Digit(len(r.tables[i]))] = refEntry{primary: i}
				r.tables[i] = append(r.tables[i], row)
			}
		}
	}
	r.fill(idx)
	for j := 0; j < idx; j++ {
		if !r.down[j] {
			r.offer(j, idx)
		}
	}
}

// sameTables reports the first entry where m and r differ.
func sameTables(m *Mesh, r *refMesh) error {
	if m.Len() != len(r.ids) || m.levels != r.levels {
		return fmt.Errorf("shape: %d nodes/%d levels, reference %d/%d", m.Len(), m.levels, len(r.ids), r.levels)
	}
	for i := range r.ids {
		got := m.nodes[i].table
		if len(got) != len(r.tables[i]) {
			return fmt.Errorf("node %d: %d levels, reference %d", i, len(got), len(r.tables[i]))
		}
		for l := range got {
			for d := range got[l] {
				e, want := got[l][d], r.tables[i][l][d]
				ok := int(e.primary) == want.primary
				for k, b := range e.backups {
					if k < len(want.backups) {
						ok = ok && int(b) == want.backups[k]
					} else {
						ok = ok && b == -1
					}
				}
				if !ok {
					return fmt.Errorf("node %d slot (%d,%x): got %d %v, reference %d %v",
						i, l, d, e.primary, e.backups, want.primary, want.backups)
				}
			}
		}
	}
	return nil
}

// randomNodes draws n IDs and plane positions.  grid > 0 snaps
// positions to a grid×grid lattice, which makes exact distance ties
// (and shared positions) common.
func randomNodes(n int, seed int64, grid int) ([]guid.GUID, []float64, []float64, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	ids := make([]guid.GUID, n)
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range ids {
		ids[i] = guid.Random(r)
		if grid > 0 {
			xs[i], ys[i] = float64(r.Intn(grid)), float64(r.Intn(grid))
		} else {
			xs[i], ys[i] = r.Float64()*1000, r.Float64()*1000
		}
	}
	return ids, xs, ys, r
}

func TestBuildMatchesAllPairs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 100, 500, 2000, 4000} {
		for seed := int64(1); seed <= 3; seed++ {
			ids, xs, ys, _ := randomNodes(n, seed, 0)
			if err := sameTables(New(ids, xs, ys), newRefMesh(ids, xs, ys)); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

// TestBuildMatchesAllPairsWithTies puts nodes on a coarse lattice so
// that many candidates sit at exactly the same distance, and some at
// the same position: the tie-inclusive nearest sets and index-ordered
// offers must still land every link where the all-pairs offers do.
func TestBuildMatchesAllPairsWithTies(t *testing.T) {
	for _, c := range []struct{ n, grid int }{{60, 3}, {300, 4}, {1000, 8}, {1500, 30}} {
		for seed := int64(1); seed <= 3; seed++ {
			ids, xs, ys, _ := randomNodes(c.n, seed, c.grid)
			if err := sameTables(New(ids, xs, ys), newRefMesh(ids, xs, ys)); err != nil {
				t.Fatalf("n=%d grid=%d seed=%d: %v", c.n, c.grid, seed, err)
			}
		}
	}
}

func TestRepairMatchesAllPairs(t *testing.T) {
	for _, n := range []int{40, 500, 2000} {
		for seed := int64(1); seed <= 2; seed++ {
			ids, xs, ys, r := randomNodes(n, seed, 0)
			m, ref := New(ids, xs, ys), newRefMesh(ids, xs, ys)
			for _, i := range r.Perm(n)[:n/4] {
				m.RemoveNode(i)
				ref.down[i] = true
			}
			m.Repair()
			ref.repair()
			if err := sameTables(m, ref); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			for i, x := range m.nodes {
				if x.Down {
					continue
				}
				for l := range x.table {
					for _, e := range x.table[l] {
						for _, j := range append([]int32{e.primary}, e.backups[:]...) {
							if j >= 0 && m.nodes[j].Down {
								t.Fatalf("n=%d seed=%d: live node %d links to down node %d", n, seed, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestAddNodeMatchesFreshBuild grows a mesh online and compares it with
// a build over the same nodes from scratch: while the level count does
// not change, incremental insertion reaches exactly the built state.
func TestAddNodeMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		const n, added = 100, 60 // 100 and 160 nodes both need 8 levels
		ids, xs, ys, _ := randomNodes(n+added, seed, 0)
		if neededLevels(n) != neededLevels(n+added) {
			t.Fatal("test sizes change the level count")
		}
		m := New(ids[:n], xs[:n], ys[:n])
		for i := n; i < n+added; i++ {
			if idx := m.AddNode(ids[i], xs[i], ys[i]); idx != i {
				t.Fatalf("AddNode returned %d, want %d", idx, i)
			}
		}
		fresh := New(ids, xs, ys)
		for i := range ids {
			if len(m.nodes[i].table) != len(fresh.nodes[i].table) {
				t.Fatalf("seed %d node %d: table height differs", seed, i)
			}
			for l := range fresh.nodes[i].table {
				if m.nodes[i].table[l] != fresh.nodes[i].table[l] {
					t.Fatalf("seed %d node %d level %d: incremental %v, fresh %v",
						seed, i, l, m.nodes[i].table[l], fresh.nodes[i].table[l])
				}
			}
		}
	}
}

// TestAddNodeGrowingLevelsMatchesAllPairs crosses a level-count change
// (16 -> 17 nodes adds a level), where incremental insertion is not a
// fresh build; it must still do what the all-pairs insertion did.
func TestAddNodeGrowingLevelsMatchesAllPairs(t *testing.T) {
	ids, xs, ys, _ := randomNodes(40, 4, 0)
	m, ref := New(ids[:10], xs[:10], ys[:10]), newRefMesh(ids[:10], xs[:10], ys[:10])
	m.RemoveNode(3)
	ref.down[3] = true
	for i := 10; i < 40; i++ {
		m.AddNode(ids[i], xs[i], ys[i])
		ref.add(ids[i], xs[i], ys[i])
	}
	if err := sameTables(m, ref); err != nil {
		t.Fatal(err)
	}
}
