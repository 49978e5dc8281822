// Package plaxton implements OceanStore's global data-location layer
// (paper §4.3.3, Figure 3): a highly redundant variant of the Plaxton,
// Rajaraman and Richa randomized hierarchical distributed data
// structure [40], the design later known as Tapestry.
//
// Every server gets a random node-ID.  Neighbour links are organised in
// levels: the level-l links of node X point at the closest nodes (in
// underlying network distance) whose IDs match X's lowest l digits and
// who differ in digit l — one entry per hex digit value, one of which
// is always a loopback.  The links embed a random spanning tree rooted
// at every node, so a message can route to any node by resolving its ID
// one digit per hop, in O(log n) hops.
//
// Each object GUID is mapped to a *root* node — the node whose ID
// matches the GUID in the most low-order digits, found by surrogate
// routing.  Publishing a replica walks from the replica's server to the
// root, depositing a location pointer at every hop; a search climbs
// toward the root until it hits a pointer, then routes directly to the
// replica.  The paper's §4.3.3 fault-tolerance additions are included:
// salted multi-root publishing, backup neighbour links, and soft-state
// republish with pointer expiry.
package plaxton

import (
	"fmt"
	"math"
	"time"

	"oceanstore/internal/guid"
)

// Base is the routing radix (hex digits).
const Base = 16

// backupsPerEntry is how many redundant links each routing-table entry
// keeps besides the primary (§4.3.3 "additional neighbor links").
const backupsPerEntry = 2

// entry is one routing-table slot: a primary link plus up to
// backupsPerEntry backups, closest first, with -1 marking an empty
// link.  Entries are fixed-size and pointer-free, so a node's table is
// one flat allocation the garbage collector never scans.
type entry struct {
	primary int32
	backups [backupsPerEntry]int32
}

// emptyEntry is a slot with no links.
var emptyEntry = func() entry {
	e := entry{primary: -1}
	for i := range e.backups {
		e.backups[i] = -1
	}
	return e
}()

// pointer is a deposited location pointer: object GUID → the node
// currently holding a replica.  Expiry implements soft state: without
// periodic republish the pointer decays (§4.3.3).
type pointer struct {
	holder  int
	expires time.Duration
}

// Node is one server in the mesh.
type Node struct {
	ID    guid.GUID
	Index int
	Down  bool
	// table[l][d]: neighbour matching our low l digits with digit l = d.
	table [][Base]entry
	// pointers deposited by publishes routed through this node.
	pointers map[guid.GUID][]pointer
}

// Mesh is the global structure.  Network distance is Euclidean distance
// between the nodes' positions on the latency plane (the simulated
// network's model), so "closest neighbour" reflects IP proximity as in
// the paper.
type Mesh struct {
	nodes  []*Node
	xs, ys []float64 // plane positions, by node index
	levels int
	// Salts is the number of salted roots per GUID (§4.3.3); publish and
	// locate spread over all of them.
	Salts uint32
	// PointerTTL bounds pointer life; zero means no expiry.
	PointerTTL time.Duration
}

// RouteResult reports a mesh traversal.
type RouteResult struct {
	Path     []int   // node indexes visited, starting with the origin
	Distance float64 // accumulated network distance
}

// Hops returns the number of edges traversed.
func (r RouteResult) Hops() int { return len(r.Path) - 1 }

// New builds a mesh over n pre-assigned node IDs placed at (xs[i],
// ys[i]); the coordinates are copied.  Tables are constructed from
// global knowledge — the steady state the paper's online insertion
// algorithm converges to — by the exact nearest-neighbour builder in
// build.go.
func New(ids []guid.GUID, xs, ys []float64) *Mesh {
	if len(xs) != len(ids) || len(ys) != len(ids) {
		panic(fmt.Sprintf("plaxton: %d ids but %d/%d coordinates", len(ids), len(xs), len(ys)))
	}
	n := len(ids)
	m := &Mesh{
		xs:     append([]float64(nil), xs...),
		ys:     append([]float64(nil), ys...),
		levels: neededLevels(n),
		Salts:  1,
	}
	nodes := make([]Node, n)
	tables := make([][Base]entry, n*m.levels)
	m.nodes = make([]*Node, n)
	for i, id := range ids {
		nodes[i] = Node{ID: id, Index: i, pointers: make(map[guid.GUID][]pointer)}
		nodes[i].table = tables[i*m.levels : (i+1)*m.levels : (i+1)*m.levels]
		m.nodes[i] = &nodes[i]
	}
	m.rebuild()
	return m
}

// neededLevels bounds table height: routing resolves one digit per
// level and IDs are random, so log16(n)+6 levels suffice with slack.
func neededLevels(n int) int {
	if n < 2 {
		return 1
	}
	l := int(math.Ceil(math.Log(float64(n))/math.Log(Base))) + 6
	if l > guid.Digits {
		l = guid.Digits
	}
	return l
}

func (m *Mesh) newNode(id guid.GUID, idx int) *Node {
	n := &Node{ID: id, Index: idx, pointers: make(map[guid.GUID][]pointer)}
	n.table = make([][Base]entry, m.levels)
	m.resetTable(n)
	return n
}

// resetTable empties n's table except for its loopbacks: n itself
// always occupies its own digit slot at every level.
func (m *Mesh) resetTable(n *Node) {
	for l := range n.table {
		for d := range n.table[l] {
			n.table[l][d] = emptyEntry
		}
		n.table[l][n.ID.Digit(l)].primary = int32(n.Index)
	}
}

// Len returns the number of nodes ever added (including down ones).
func (m *Mesh) Len() int { return len(m.nodes) }

// Node returns node i.
func (m *Mesh) Node(i int) *Node { return m.nodes[i] }

// dist is the network distance between nodes a and b.  Every
// comparison that picks a link uses exactly this float.
func (m *Mesh) dist(a, b int) float64 {
	return math.Hypot(m.xs[a]-m.xs[b], m.ys[a]-m.ys[b])
}

// fillTable populates node i's routing table by offering it every live
// node — O(n), used for a single online insertion.
func (m *Mesh) fillTable(i int) {
	for j, y := range m.nodes {
		if j == i || y.Down {
			continue
		}
		m.offerLink(i, j, 0)
	}
}

// offerLink considers node j as a routing entry for node i at every
// level from `from` up where it qualifies, keeping the closest as
// primary and the next closest as backups.
func (m *Mesh) offerLink(i, j, from int) {
	x, y := m.nodes[i], m.nodes[j]
	match := x.ID.MatchingDigits(y.ID)
	if match >= m.levels {
		match = m.levels - 1
	}
	for l := from; l <= match; l++ {
		d := y.ID.Digit(l)
		m.offer(&x.table[l][d], i, j, d == x.ID.Digit(l))
	}
}

// offer applies candidate j to one slot e of owner i's table.  In the
// loopback slot (own digit) i stays primary and j can only become a
// backup; elsewhere a strictly closer j takes over as primary and the
// old primary drops to the backups.  The outcome depends on the order
// of offers when distances tie, so every builder offers a slot's
// candidates in ascending node index.
func (m *Mesh) offer(e *entry, i, j int, loopback bool) {
	switch {
	case loopback:
		m.insertBackup(e, j, i)
	case e.primary < 0:
		e.primary = int32(j)
	case m.dist(i, j) < m.dist(i, int(e.primary)):
		m.insertBackup(e, int(e.primary), i)
		e.primary = int32(j)
	default:
		m.insertBackup(e, j, i)
	}
}

// insertBackup adds candidate to e's backups, keeping the closest
// backupsPerEntry by distance from owner.  A new candidate sinks below
// backups at an equal distance.
func (m *Mesh) insertBackup(e *entry, candidate, owner int) {
	var buf [backupsPerEntry + 1]int32
	n := 0
	for _, b := range e.backups {
		if b < 0 {
			break
		}
		if int(b) == candidate {
			return
		}
		buf[n] = b
		n++
	}
	buf[n] = int32(candidate)
	n++
	// Insertion sort by distance; truncate.
	for i := n - 1; i > 0; i-- {
		if m.dist(owner, int(buf[i])) < m.dist(owner, int(buf[i-1])) {
			buf[i], buf[i-1] = buf[i-1], buf[i]
		}
	}
	for i := range e.backups {
		e.backups[i] = -1
		if i < n {
			e.backups[i] = buf[i]
		}
	}
}

// nextHop resolves digit `level` of the target from cur.  It scans the
// level's slots starting at the wanted digit and wrapping ((d+k) mod
// Base) — Tapestry's surrogate rule — and returns the first live
// candidate.  A return of cur means cur itself occupies the chosen slot
// (loopback): the level is resolved in place.  Because the set of
// non-empty slots at a level depends only on the node's low `level`
// digits, every source scanning the same effective prefix picks the
// same digit, which is what makes the surrogate root unique.
func (m *Mesh) nextHop(cur int, target guid.GUID, level int) int {
	x := m.nodes[cur]
	want := int(target.Digit(level))
	for k := 0; k < Base; k++ {
		d := (want + k) % Base
		e := &x.table[level][d]
		if e.primary >= 0 && !m.nodes[e.primary].Down {
			return int(e.primary)
		}
		// Primary dead: fail over to a backup link (§4.3.3 redundancy).
		for _, b := range e.backups {
			if b >= 0 && !m.nodes[b].Down {
				return int(b)
			}
		}
	}
	return -1
}

// HopCandidates returns the fallback-ordered candidate list for
// resolving digit `level` of target from cur: slots in surrogate-scan
// order, each slot's primary before its backups, skipping nodes the
// mesh already knows are down.  The list is what the asynchronous
// Router tries in order when hops time out — the first entry is
// exactly nextHop's choice, and an entry equal to cur means the level
// resolves in place.  At most cap candidates are returned (cap <= 0
// means no limit).
func (m *Mesh) HopCandidates(cur int, target guid.GUID, level int, cap int) []int {
	x := m.nodes[cur]
	want := int(target.Digit(level))
	var out []int
	add := func(c int32) bool {
		if c < 0 || m.nodes[c].Down {
			return false
		}
		out = append(out, int(c))
		return cap > 0 && len(out) >= cap
	}
	for k := 0; k < Base; k++ {
		e := &x.table[level][(want+k)%Base]
		if add(e.primary) {
			return out
		}
		if int(e.primary) == cur && !m.nodes[cur].Down {
			// Loopback: the level resolves in place; farther slots are
			// only surrogate fallbacks for a dead cur, which cannot apply
			// to the node doing the routing.
			return out
		}
		for _, b := range e.backups {
			if add(b) {
				return out
			}
		}
	}
	return out
}

// RouteToRoot routes from start to the surrogate root of g, returning
// the path.  In a fully repaired mesh every start converges on the same
// root for the same set of live nodes.
func (m *Mesh) RouteToRoot(start int, g guid.GUID) (RouteResult, error) {
	if m.nodes[start].Down {
		return RouteResult{}, fmt.Errorf("plaxton: start node %d is down", start)
	}
	res := RouteResult{Path: []int{start}}
	cur := start
	for level := 0; level < m.levels; level++ {
		next := m.nextHop(cur, g, level)
		if next < 0 || next == cur {
			continue // resolved in place; advance to the next level
		}
		res.Distance += m.dist(cur, next)
		cur = next
		res.Path = append(res.Path, cur)
	}
	return res, nil
}

// Root returns the surrogate root node index for g as seen from any
// live node (deterministic), or -1 when the mesh has no live nodes.
func (m *Mesh) Root(g guid.GUID) int {
	start := -1
	for i, n := range m.nodes {
		if !n.Down {
			start = i
			break
		}
	}
	if start < 0 {
		return -1
	}
	res, err := m.RouteToRoot(start, g)
	if err != nil {
		return -1
	}
	return res.Path[len(res.Path)-1]
}
