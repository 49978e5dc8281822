package main

import (
	"fmt"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/plaxton"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// ops is the fixed operation count of one episode.  It is the same
	// on every run, so the virtual-time outputs are a function of the
	// seed alone.
	ops int
	// build makes the world; dir is an empty directory it may use.
	build func(seed int64, dir string, ops int) (*world, error)
}

// world is a built world, ready for traffic.  What it holds decides
// which self-checks its episodes run.
type world struct {
	pool   *core.Pool
	soak   *core.SoakWorld // soak workloads
	mesh   *meshReads      // mesh-read-4k
	target workload.Target
	engine workload.EngineConfig
	// volDir holds the blobstore volumes of a disk-backed world.
	volDir string
	// reg is the registry a workload runs with even untraced
	// (flash-10k); nil otherwise.
	reg *obs.Registry
	// meshBuildS is the wall time of core.NewPool when it builds the
	// location mesh.
	meshBuildS float64
}

var workloads = []*workloadDef{
	{name: "soak-100k", ops: 60_000, build: buildSoak100k},
	{name: "flash-10k", ops: 180_000, build: buildFlash10k},
	{name: "archive-disk-1k", ops: 240_000, build: buildArchiveDisk1k},
	{name: "mesh-read-4k", ops: 100_000, build: buildMeshRead4k},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// soakEngine is the closed-loop mix every soak workload shares (the
// osexp soak defaults): 256 B mean writes, Zipf 1.1, 200 ms think,
// shed requests retried after about a second.
func soakEngine(cfg core.SoakConfig, ops int, write, create float64) workload.EngineConfig {
	return workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           ops,
		Mix:           workload.Mix{WriteFrac: write, CreateFrac: create},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 256,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}
}

func soakWorld(seed int64, cfg core.SoakConfig, eng workload.EngineConfig) (*world, error) {
	sw, err := core.NewSoakWorld(seed, cfg)
	if err != nil {
		return nil, err
	}
	return &world{pool: sw.Pool, soak: sw, target: sw, engine: eng}, nil
}

// buildSoak100k: the Fig-5 write path at 100,000 nodes, memory backend,
// no registry.
func buildSoak100k(seed int64, _ string, ops int) (*world, error) {
	cfg := core.DefaultSoakConfig(100_000)
	cfg.Clients = 256
	cfg.ScrubInterval = 30 * time.Second
	return soakWorld(seed, cfg, soakEngine(cfg, ops, 0.30, 0.01))
}

// buildFlash10k: read-heavy with introspection and the modeled read
// queue, and the one workload that runs with a registry attached.
func buildFlash10k(seed int64, _ string, ops int) (*world, error) {
	cfg := core.DefaultSoakConfig(10_000)
	cfg.Introspect = true
	cfg.ReadService = 2 * time.Millisecond
	cfg.ScrubInterval = 30 * time.Second
	eng := soakEngine(cfg, ops, 0.05, 0.01)
	// The crowd: from 20 s of virtual time for two minutes, 90 % of
	// draws land on 4 objects.
	eng.Shape = workload.Shape{
		FlashAt:      20 * time.Second,
		FlashFor:     2 * time.Minute,
		FlashMass:    0.9,
		FlashObjects: 4,
	}
	w, err := soakWorld(seed, cfg, eng)
	if err != nil {
		return nil, err
	}
	w.reg = obs.NewRegistry()
	return w, nil
}

// buildArchiveDisk1k: a long run over real volumes, so scrub, flush
// and gossip run many times.  Group commit flushes every 5 s of
// virtual time.  No creates: each create archives 8 new fragments,
// and at 1 % creates the fragment set grows faster than the scrub's
// 64 fragments per 30 s tick can cover, so a full scrub pass would
// never finish.  48 clients rather than the default 31: with 31
// clients on nodes 0-30 the slowest 1 % of writes all take one and the
// same network path, so write_p99_ms would not depend on the seed.
func buildArchiveDisk1k(seed int64, dir string, ops int) (*world, error) {
	cfg := core.DefaultSoakConfig(1_000)
	cfg.Clients = 48
	cfg.Backend = "disk"
	cfg.StoreDir = dir
	cfg.ScrubInterval = 30 * time.Second
	cfg.FlushInterval = 5 * time.Second
	w, err := soakWorld(seed, cfg, soakEngine(cfg, ops, 0.30, 0))
	if err != nil {
		return nil, err
	}
	w.volDir = dir
	return w, nil
}

// Mesh-read settings: 90 % reads, 10 % block replacements, and a
// deadline generous enough that a read without churn never misses it.
const (
	meshWriteFrac = 0.10
	meshDeadline  = 30 * time.Second
	meshSalts     = 2
	meshReplicas  = 4
)

// buildMeshRead4k builds a mesh-on pool with the soak's ring settings,
// nodes/16 objects each with four published floating replicas, and
// nodes/32 clients spread evenly over the nodes.
func buildMeshRead4k(seed int64, _ string, ops int) (*world, error) {
	sc := core.DefaultSoakConfig(4_000)
	pc := core.PoolConfig{
		Nodes:     sc.Nodes,
		Domains:   sc.Domains,
		Faults:    sc.Faults,
		BlockSize: sc.BlockSize,
		// The ring settings core.NewSoakWorld uses.
		Ring: replica.Config{
			Faults:         sc.Faults,
			ArchiveEvery:   sc.ArchiveEvery,
			Archive:        archive.Config{DataShards: 4, TotalFragments: 8},
			GossipInterval: sc.GossipInterval,
			TreeFanout:     4,
			Retention: epidemic.Retention{
				TentativeExpire: sc.WriteTimeout + 2*sc.GossipInterval,
				CommitWindow:    128,
			},
			LogCap:       256,
			HistoryBound: sc.RetainVersions,
			DropExecuted: true,
		},
		Extent:         sc.Extent,
		BaseLatency:    sc.BaseLatency,
		LatencyPerUnit: sc.LatencyPerUnit,
		Salts:          meshSalts,
		BatchDelivery:  true,
		Shards:         sc.Shards,
	}
	t0 := time.Now()
	p := core.NewPool(seed, pc)
	buildS := time.Since(t0).Seconds()

	m := &meshReads{pool: p, router: p.Router(), await: make(map[update.UpdateID]func(bool))}
	owner := p.NewClient(0, crypt.NewSigner(p.K.Rand()))
	writers := &acl.ACL{}
	stride := sc.Nodes / sc.Clients
	for i := 0; i < sc.Clients; i++ {
		node := simnet.NodeID(i * stride)
		c := p.NewClient(node, crypt.NewSigner(p.K.Rand()))
		c.Keys = owner.Keys
		s := c.NewSession(sc.Guarantees)
		s.UpdateTimeout = sc.WriteTimeout
		s.OnCommit(func(_ guid.GUID, id update.UpdateID) { m.resolve(id, true) })
		s.OnAbort(func(_ guid.GUID, id update.UpdateID) { m.resolve(id, false) })
		m.sessions = append(m.sessions, s)
		m.nodes = append(m.nodes, node)
		writers.Entries = append(writers.Entries, acl.Entry{PubKey: c.Signer.Public(), Priv: acl.PrivWrite})
	}
	next := 0
	for i := 0; i < sc.Objects; i++ {
		obj, err := owner.Create(fmt.Sprintf("mesh-%d", i), make([]byte, sc.BlockSize))
		if err != nil {
			return nil, err
		}
		if err := p.SetACL(owner.Signer, obj, writers, 2); err != nil {
			return nil, err
		}
		for placed := 0; placed < meshReplicas; next++ {
			if p.AddReplica(obj, simnet.NodeID(next%sc.Nodes)) == nil {
				placed++
			}
		}
		m.objects = append(m.objects, obj)
	}
	eng := workload.EngineConfig{
		Clients:       sc.Clients,
		Ops:           ops,
		Mix:           workload.Mix{WriteFrac: meshWriteFrac},
		Objects:       sc.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 256,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}
	return &world{pool: p, mesh: m, target: m, engine: eng, meshBuildS: buildS}, nil
}

// meshReads is mesh-read-4k's target.  A read locates the object over
// the mesh from the client's node (Router.Locate) and then fetches it
// (Session.RemoteRead); a write replaces block 0 through the session.
// It records a virtual-time span for each locate and each fetch.
type meshReads struct {
	pool     *core.Pool
	router   *plaxton.Router
	sessions []*core.Session
	nodes    []simnet.NodeID
	objects  []guid.GUID
	await    map[update.UpdateID]func(ok bool)

	locateNS, fetchNS     []int64
	hops                  int64
	locateFail, fetchFail int
}

func (m *meshReads) Do(req workload.Request, done func(ok bool)) error {
	s := m.sessions[req.Client%len(m.sessions)]
	obj := m.objects[req.Object%len(m.objects)]
	if req.Kind == workload.OpWrite {
		size := req.Size
		if bs := m.pool.Config().BlockSize; size > bs {
			size = bs
		}
		id, err := s.Replace(obj, 0, make([]byte, size))
		if err != nil {
			done(false)
			return nil
		}
		m.await[id] = done
		return nil
	}
	k := m.pool.K
	t0 := k.Now()
	m.router.Locate(int(m.nodes[req.Client%len(m.nodes)]), obj, meshDeadline, func(res plaxton.LocateResult, err error) {
		t1 := k.Now()
		if err != nil {
			m.locateFail++
			done(false)
			return
		}
		m.locateNS = append(m.locateNS, int64(t1-t0))
		m.hops += int64(res.Hops)
		s.RemoteRead(obj, meshDeadline, func(_ []byte, err error) {
			if err != nil {
				m.fetchFail++
				done(false)
				return
			}
			m.fetchNS = append(m.fetchNS, int64(k.Now()-t1))
			done(true)
		})
	})
	return nil
}

func (m *meshReads) resolve(id update.UpdateID, ok bool) {
	if done, found := m.await[id]; found {
		delete(m.await, id)
		done(ok)
	}
}
