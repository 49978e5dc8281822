package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"oceanstore/internal/bloom"
	"oceanstore/internal/guid"
	"oceanstore/internal/plaxton"
)

// torus builds a side×side 4-regular torus adjacency list.
func torus(side int) [][]int {
	n := side * side
	adj := make([][]int, n)
	at := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			u := at(x, y)
			adj[u] = []int{at(x+1, y), at(x-1, y), at(x, y+1), at(x, y-1)}
		}
	}
	return adj
}

// runBloom prints E4: the probabilistic tier's success rate within the
// filter horizon, its hop stretch vs optimal, and per-node state, for
// several filter depths.
func runBloom(w io.Writer, seed int64, _ *obsink) {
	const side = 16 // 256-node torus
	const objects = 120
	const queries = 400
	fmt.Fprintf(w, "topology: %dx%d torus (%d nodes), %d objects, %d queries\n\n", side, side, side*side, objects, queries)
	fmt.Fprintf(w, "%-6s %-16s %-12s %-12s %-14s\n", "depth", "within-horizon", "success", "stretch", "state/node")
	for _, depth := range []int{2, 3, 4, 5} {
		r := rand.New(rand.NewSource(seed))
		adj := torus(side)
		loc := bloom.NewLocator(adj, depth, 16384, 4)
		var objs []guid.GUID
		for i := 0; i < objects; i++ {
			g := guid.Random(r)
			loc.Place(r.Intn(len(adj)), g)
			objs = append(objs, g)
		}
		loc.Rebuild()
		within, found, hops, opt := 0, 0, 0, 0
		for q := 0; q < queries; q++ {
			g := objs[r.Intn(len(objs))]
			start := r.Intn(len(adj))
			d := loc.ShortestDistance(start, g)
			if d > depth {
				continue // beyond the probabilistic horizon: global tier's job
			}
			within++
			res := loc.Query(start, g, 4*depth, r)
			if res.Found {
				found++
				hops += res.Hops
				opt += d
			}
		}
		stretch := 1.0
		if opt > 0 {
			stretch = float64(hops) / float64(opt)
		}
		fmt.Fprintf(w, "%-6d %-16d %3d/%-8d %-12.3f %6d B\n", depth, within, found, within, stretch, loc.StateBytes(0))
	}
	fmt.Fprintln(w, "\npaper (§5): \"our algorithm finds nearby objects with near-optimal efficiency\"")
}

// runPlaxton prints E5: routing hop scaling, locate locality, and the
// effect of salted multi-roots on availability after root failure.
func runPlaxton(w io.Writer, seed int64, _ *obsink) {
	fmt.Fprintln(w, "-- routing hops vs network size (paper: O(log n) resolution) --")
	fmt.Fprintf(w, "%-8s %-10s %-12s %-10s\n", "nodes", "avg hops", "max hops", "log16(n)")
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		r := rand.New(rand.NewSource(seed))
		mesh, dist := randomMesh(n, r)
		_ = dist
		tot, maxh := 0, 0
		const trials = 100
		for i := 0; i < trials; i++ {
			res, err := mesh.RouteToRoot(r.Intn(n), guid.Random(r))
			if err != nil {
				panic(err)
			}
			tot += res.Hops()
			if res.Hops() > maxh {
				maxh = res.Hops()
			}
		}
		fmt.Fprintf(w, "%-8d %-10.2f %-12d %-10.2f\n", n, float64(tot)/trials, maxh, math.Log(float64(n))/math.Log(16))
	}

	fmt.Fprintln(w, "\n-- locate distance vs distance to the closest replica (locality) --")
	{
		r := rand.New(rand.NewSource(seed))
		mesh, dist := randomMesh(512, r)
		g := guid.Random(r)
		var holders []int
		for i := 0; i < 512; i += 32 {
			if _, err := mesh.Publish(i, g, 0); err != nil {
				panic(err)
			}
			holders = append(holders, i)
		}
		var locSum, optSum, randSum float64
		const trials = 200
		for i := 0; i < trials; i++ {
			start := r.Intn(512)
			res, err := mesh.Locate(start, g, 0)
			if err != nil {
				continue
			}
			best := math.Inf(1)
			for _, h := range holders {
				if d := dist(start, h); d < best {
					best = d
				}
			}
			locSum += dist(start, res.Holder)
			optSum += best
			randSum += dist(start, holders[r.Intn(len(holders))])
		}
		fmt.Fprintf(w, "mean distance to located replica: %8.2f\n", locSum/trials)
		fmt.Fprintf(w, "mean distance to closest replica: %8.2f\n", optSum/trials)
		fmt.Fprintf(w, "mean distance to random replica:  %8.2f\n", randSum/trials)
	}

	fmt.Fprintln(w, "\n-- salted multi-root fault tolerance (root path killed) --")
	fmt.Fprintf(w, "%-8s %-16s %-14s\n", "salts", "locate success", "publish hops")
	for _, salts := range []uint32{1, 2, 4, 8} {
		r := rand.New(rand.NewSource(seed))
		mesh, _ := randomMesh(256, r)
		mesh.Salts = salts
		g := guid.Random(r)
		holder := 17
		hops, err := mesh.Publish(holder, g, 0)
		if err != nil {
			panic(err)
		}
		// Kill the primary root path (except the holder).
		res, _ := mesh.RouteToRoot(holder, g)
		for _, idx := range res.Path {
			if idx != holder {
				mesh.RemoveNode(idx)
			}
		}
		ok, total := 0, 0
		for start := 0; start < 256; start += 5 {
			if mesh.Node(start).Down {
				continue
			}
			total++
			if lr, err := mesh.Locate(start, g, 0); err == nil && lr.Holder == holder {
				ok++
			}
		}
		fmt.Fprintf(w, "%-8d %3d/%-12d %-14d\n", salts, ok, total, hops)
	}
	fmt.Fprintln(w, "\npaper: salted GUIDs map to several roots, \"gaining redundancy and simultaneously")
	fmt.Fprintln(w, "making it difficult to target a single node with a denial of service attack\"")
}

// randomMesh builds an n-node mesh over random plane positions.
func randomMesh(n int, r *rand.Rand) (*plaxton.Mesh, func(a, b int) float64) {
	ids := make([]guid.GUID, n)
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range ids {
		ids[i] = guid.Random(r)
		xs[i], ys[i] = r.Float64()*100, r.Float64()*100
	}
	dist := func(a, b int) float64 {
		return math.Hypot(xs[a]-xs[b], ys[a]-ys[b])
	}
	return plaxton.New(ids, xs, ys), dist
}
