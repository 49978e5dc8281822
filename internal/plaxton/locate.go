package plaxton

import (
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/guid"
)

// Publish deposits location pointers for object g held at node holder:
// the publish walks from the holder to each salted root, dropping a
// pointer at every hop (§4.3.3).  now stamps the pointers for soft-
// state expiry.  It returns the total hops used (the publish cost).
func (m *Mesh) Publish(holder int, g guid.GUID, now time.Duration) (int, error) {
	if m.nodes[holder].Down {
		return 0, fmt.Errorf("plaxton: holder %d is down", holder)
	}
	hops := 0
	for s := uint32(0); s < m.Salts; s++ {
		res, err := m.RouteToRoot(holder, m.salted(g, s))
		if err != nil {
			return hops, err
		}
		for _, idx := range res.Path {
			m.depositPointer(idx, g, holder, now)
		}
		hops += res.Hops()
	}
	return hops, nil
}

// salted maps a GUID to its s-th root GUID; salt 0 is the GUID itself.
func (m *Mesh) salted(g guid.GUID, s uint32) guid.GUID {
	if s == 0 {
		return g
	}
	return g.Salted(s)
}

func (m *Mesh) depositPointer(idx int, g guid.GUID, holder int, now time.Duration) {
	n := m.nodes[idx]
	for i, p := range n.pointers[g] {
		if p.holder == holder {
			n.pointers[g][i].expires = m.expiry(now)
			return
		}
	}
	n.pointers[g] = append(n.pointers[g], pointer{holder: holder, expires: m.expiry(now)})
}

func (m *Mesh) expiry(now time.Duration) time.Duration {
	if m.PointerTTL == 0 {
		return 1<<62 - 1
	}
	return now + m.PointerTTL
}

// Unpublish removes holder's pointers for g along the paths to all
// salted roots (used when a replica is dropped deliberately).
func (m *Mesh) Unpublish(holder int, g guid.GUID, now time.Duration) {
	for s := uint32(0); s < m.Salts; s++ {
		res, err := m.RouteToRoot(holder, m.salted(g, s))
		if err != nil {
			continue
		}
		for _, idx := range res.Path {
			n := m.nodes[idx]
			ps := n.pointers[g][:0]
			for _, p := range n.pointers[g] {
				if p.holder != holder {
					ps = append(ps, p)
				}
			}
			if len(ps) == 0 {
				delete(n.pointers, g)
			} else {
				n.pointers[g] = ps
			}
		}
	}
}

// LocateResult reports a successful location.
type LocateResult struct {
	Holder   int     // node holding the replica
	Hops     int     // mesh hops climbed before the pointer hit
	Distance float64 // climb distance plus the direct leg to the holder
	Salt     uint32  // which salted root tree satisfied the query
}

// ErrNotFound is returned when no pointer (and no root record) for the
// object exists on any salted tree.
var ErrNotFound = errors.New("plaxton: object not found")

// Locate climbs from start toward g's root until it runs into a
// pointer, then routes directly to the replica (§4.3.3).  Dead holders
// are skipped (their pointers linger until expiry — soft state).  Salted
// trees are tried in order, so a failed or corrupted root only costs
// one extra climb.  The returned Distance is the quantity the paper's
// locality claim bounds: proportional to the distance from the query
// source to the closest replica.
func (m *Mesh) Locate(start int, g guid.GUID, now time.Duration) (LocateResult, error) {
	if m.nodes[start].Down {
		return LocateResult{}, fmt.Errorf("plaxton: start node %d is down", start)
	}
	var firstErr error = ErrNotFound
	for s := uint32(0); s < m.Salts; s++ {
		target := m.salted(g, s)
		cur := start
		hops := 0
		dist := 0.0
		if r, ok := m.freshHolder(cur, g, now); ok {
			return LocateResult{Holder: r, Hops: 0, Distance: m.dist(cur, r), Salt: s}, nil
		}
		for level := 0; level < m.levels; level++ {
			next := m.nextHop(cur, target, level)
			if next < 0 || next == cur {
				continue
			}
			dist += m.dist(cur, next)
			cur = next
			hops++
			if r, ok := m.freshHolder(cur, g, now); ok {
				return LocateResult{
					Holder:   r,
					Hops:     hops,
					Distance: dist + m.dist(cur, r),
					Salt:     s,
				}, nil
			}
		}
	}
	return LocateResult{}, firstErr
}

// freshHolder returns a live, unexpired replica holder recorded at
// node idx, preferring the closest to idx.
func (m *Mesh) freshHolder(idx int, g guid.GUID, now time.Duration) (int, bool) {
	best, found := -1, false
	for _, p := range m.nodes[idx].pointers[g] {
		if p.expires < now || m.nodes[p.holder].Down {
			continue
		}
		if !found || m.dist(idx, p.holder) < m.dist(idx, best) {
			best, found = p.holder, true
		}
	}
	return best, found
}

// ---- Maintenance: churn, repair, soft state (§4.3.3) ----

// AddNode inserts a new node at plane position (x, y) online: it
// builds the newcomer's table from the existing mesh and offers the
// newcomer as a link to everyone else — the steady state the paper's
// recursive insertion reaches, in O(n).
func (m *Mesh) AddNode(id guid.GUID, x, y float64) int {
	idx := len(m.nodes)
	m.xs = append(m.xs, x)
	m.ys = append(m.ys, y)
	m.nodes = append(m.nodes, m.newNode(id, idx))
	if l := neededLevels(len(m.nodes)); l > m.levels {
		m.growLevels(l)
	}
	m.fillTable(idx)
	for j := range m.nodes[:idx] {
		if !m.nodes[j].Down {
			m.offerLink(j, idx, 0)
		}
	}
	return idx
}

func (m *Mesh) growLevels(levels int) {
	m.levels = levels
	for i, n := range m.nodes {
		for len(n.table) < levels {
			var row [Base]entry
			for d := range row {
				row[d] = emptyEntry
			}
			l := len(n.table)
			row[n.ID.Digit(l)].primary = int32(i)
			n.table = append(n.table, row)
		}
	}
}

// RemoveNode marks a node down.  Its pointers and table entries decay:
// routing fails over to backups immediately, and Repair rebuilds
// primaries; its stored pointers are skipped by Locate and swept by
// ExpireSoftState.
func (m *Mesh) RemoveNode(idx int) { m.nodes[idx].Down = true }

// ReviveNode brings a node back; callers should Republish its content.
func (m *Mesh) ReviveNode(idx int) { m.nodes[idx].Down = false }

// Repair rebuilds every live node's routing table over the live
// nodes, dropping links to dead nodes — the continuous
// monitor-and-repair process of §4.3.3, applied in one sweep.  Down
// nodes keep their stale tables until they are revived and repaired.
func (m *Mesh) Repair() { m.rebuild() }

// ExpireSoftState drops expired pointers and all pointers stored on
// dead nodes' behalf.  Combined with periodic Publish (republish), this
// implements the paper's soft-state beacons and pointer repair.
func (m *Mesh) ExpireSoftState(now time.Duration) int {
	removed := 0
	for _, n := range m.nodes {
		for g, ps := range n.pointers {
			kept := ps[:0]
			for _, p := range ps {
				if p.expires >= now && !m.nodes[p.holder].Down {
					kept = append(kept, p)
				} else {
					removed++
				}
			}
			if len(kept) == 0 {
				delete(n.pointers, g)
			} else {
				n.pointers[g] = kept
			}
		}
	}
	return removed
}

// PointerCount returns the total pointers stored at node idx, a state
// diagnostic for tests and experiments.
func (m *Mesh) PointerCount(idx int) int {
	c := 0
	for _, ps := range m.nodes[idx].pointers {
		c += len(ps)
	}
	return c
}
