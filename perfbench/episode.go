package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// Episode modes.  One child process runs exactly one episode, so each
// world has a process, and a peak RSS, of its own.
const (
	modeSetup  = "setup"  // build the world and stop
	modeFull   = "full"   // build, run the traffic, check the outputs
	modeTraced = "traced" // full, with registry, tracer, Do timing and a CPU profile
	modeCalib  = "calib"  // no world: time the fixed task of calibrate
)

// gossipKind is the simnet accounting tag of replica anti-entropy
// messages; bytes sent under it show that gossip ran without a
// registry attached.
const gossipKind = "replica-gossip"

// traceCap bounds the tracer ring.  The simnet per-message stream is
// left off the tracer (the registry counts messages), which keeps the
// events well below this; the episode fails if any were dropped.
const traceCap = 1 << 24

// worldSeed builds every world: the topology, keys and initial
// placement are the same in every run, and the workload seed drives
// only what happens from the first request on.
const worldSeed = 1

// episode is what a child reports to the runner.
type episode struct {
	Mode string `json:"mode"`
	// SetupS is the CPU time (user plus sys) of building the world,
	// SetupWallS its wall time.
	SetupS     float64 `json:"setup_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	TrafficS   float64 `json:"traffic_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// CalibS is the CPU time of calibrate's task (calib mode only).
	CalibS float64 `json:"calib_s,omitempty"`

	// Virtual-time outputs: a function of the seed alone.
	Ops      int     `json:"ops"`
	OK       int     `json:"ok"`
	Failed   int     `json:"failed"`
	EndNS    int64   `json:"end_ns"`
	Msgs     int     `json:"msgs"`
	Bytes    int64   `json:"bytes"`
	WriteN   int     `json:"write_n"`
	WriteP50 float64 `json:"write_p50_ms"`
	WriteP99 float64 `json:"write_p99_ms"`
	ReadN    int     `json:"read_n"`
	ReadP50  float64 `json:"read_p50_ms"`
	ReadP99  float64 `json:"read_p99_ms"`
	ReadP999 float64 `json:"read_p999_ms"`
	// Digest hashes every virtual-time output above plus the full
	// sequence of resolved operations, so equal digests mean equal
	// trajectories.
	Digest string `json:"digest"`

	// Errors lists failed output checks and self-checks.
	Errors []string `json:"errors,omitempty"`
	// Layers holds the per-layer metrics of a traced episode.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (ep *episode) failf(format string, args ...any) {
	ep.Errors = append(ep.Errors, fmt.Sprintf(format, args...))
}

// tapLog keeps every resolved operation the engine reports.
type tapLog struct {
	k      *sim.Kernel
	digest []byte
	kinds  [3]int  // resolved operations by kind
	writes []int64 // latencies of successful writes
	reads  []int64 // latencies of successful reads
	// With a flash crowd in the shape, reads issued inside the flash
	// window are counted, and how many of them hit the hot set
	// [hotFirst, hotEnd); likewise outside the window.
	shape                              workload.Shape
	hotFirst, hotEnd                   int
	inWin, inWinHot, outWin, outWinHot int
}

func (t *tapLog) observe(req workload.Request, lat time.Duration, ok bool) {
	var rec [18]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(req.Client))
	rec[8] = byte(req.Kind)
	binary.LittleEndian.PutUint64(rec[9:], uint64(lat))
	if ok {
		rec[17] = 1
	}
	t.digest = append(t.digest, rec[:]...)
	t.kinds[req.Kind]++
	if !ok {
		return
	}
	switch req.Kind {
	case workload.OpWrite:
		t.writes = append(t.writes, int64(lat))
	case workload.OpRead:
		t.reads = append(t.reads, int64(lat))
		if t.shape.FlashFor == 0 {
			return
		}
		hot := req.Object >= t.hotFirst && req.Object < t.hotEnd
		if t.shape.FlashActive(t.k.Now() - lat) {
			t.inWin++
			if hot {
				t.inWinHot++
			}
		} else {
			t.outWin++
			if hot {
				t.outWinHot++
			}
		}
	}
}

// timedTarget times each Target.Do call in wall-clock nanoseconds, by
// operation kind.  Only traced episodes use it.
type timedTarget struct {
	inner workload.Target
	ns    map[workload.OpKind][]int64
}

func (t *timedTarget) Do(req workload.Request, done func(ok bool)) error {
	t0 := time.Now()
	err := t.inner.Do(req, done)
	t.ns[req.Kind] = append(t.ns[req.Kind], time.Since(t0).Nanoseconds())
	return err
}

// netSnap copies the simnet counters the episode diffs (Stats reuses
// its maps between calls).
type netSnap struct {
	sent, delivered, retries int
	bytes, gossip            int64
}

func snapNet(n *simnet.Network) netSnap {
	st := n.Stats()
	return netSnap{
		sent: st.MessagesSent, delivered: st.MessagesDelivered,
		retries: st.Retries,
		bytes:   st.BytesSent, gossip: st.ByKind[gossipKind],
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// gcCPU reads the runtime's GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// fragKey identifies one stored fragment by content.
type fragKey struct {
	root  guid.GUID
	index int
	crc   uint32
}

func storeFrags(s archive.Store, into map[fragKey]int) {
	s.Scan(func(root guid.GUID, index int) bool {
		var crc uint32
		if sf, ok := s.Get(root, index); ok {
			crc = crc32.ChecksumIEEE(sf.Data)
		}
		into[fragKey{root, index, crc}]++
		return true
	})
}

// runEpisode builds one world and, unless mode is setup-only, drives
// its traffic and checks the outputs.  dir is a fresh directory the
// episode may fill (disk volumes, the metrics dump).
func runEpisode(def *workloadDef, seed int64, mode, dir string) *episode {
	ep := &episode{Mode: mode}
	traced := mode == modeTraced
	buildDir := filepath.Join(dir, "world")
	if err := os.Mkdir(buildDir, 0o755); err != nil {
		ep.failf("make world dir: %v", err)
		return ep
	}

	t0, c0 := time.Now(), cpuSeconds()
	w, err := def.build(worldSeed, buildDir, def.ops)
	ep.SetupS, ep.SetupWallS = cpuSeconds()-c0, time.Since(t0).Seconds()
	if err != nil {
		ep.failf("build world: %v", err)
		return ep
	}
	if mode == modeSetup {
		if w.soak != nil {
			if err := w.soak.Close(); err != nil {
				ep.failf("close world: %v", err)
			}
		}
		ep.PeakRSSMB = peakRSSMB()
		return ep
	}

	k := w.pool.K
	// Once the world is built, the kernel's random stream restarts from
	// the workload seed: the request mix, object choice, think times and
	// every protocol draw after them follow from it.  (Every shard of a
	// merge-mode kernel draws from this one stream.)
	k.Rand().Seed(seed)
	reg := w.reg
	var tr *obs.Tracer
	if traced {
		if reg == nil {
			reg = obs.NewRegistry()
		}
		tr = obs.NewTracer(traceCap)
	}
	if reg != nil {
		if w.soak != nil {
			w.soak.Instrument(reg, tr)
		} else {
			w.pool.Instrument(reg, tr)
		}
		// Keep the per-message stream off the tracer; the registry
		// still counts every message.
		w.pool.Net.Instrument(reg, nil)
	}
	target := w.target
	var timed *timedTarget
	if traced {
		timed = &timedTarget{inner: w.target, ns: make(map[workload.OpKind][]int64)}
		target = timed
	}
	eng := workload.NewEngine(k, w.engine, target)
	taps := &tapLog{k: k, shape: w.engine.Shape}
	first, size := taps.shape.FlashSet(w.engine.Objects)
	taps.hotFirst, taps.hotEnd = first, first+size
	eng.Tap(taps.observe)
	if reg != nil {
		eng.Instrument(reg)
	}

	net0 := snapNet(w.pool.Net)
	var blob0 blobstore.Stats
	var sched0 archive.SchedulerStats
	if w.soak != nil {
		blob0, _ = w.soak.BlobStats()
		if sc := w.soak.Scheduler(); sc != nil {
			sched0 = sc.Stats()
		}
	}
	var ms0 runtime.MemStats
	var gc0, cpuTot0 float64
	var prof bytes.Buffer
	if traced {
		runtime.ReadMemStats(&ms0)
		gc0, cpuTot0 = gcCPU()
	}

	events := 0
	cpu0 := cpuSeconds()
	t1 := time.Now()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			ep.failf("start cpu profile: %v", err)
			traced = false
		}
	}
	eng.Start()
	k.RunWhile(func() bool {
		events++
		return !eng.Done()
	})
	events-- // the last call ends the loop and runs no event
	var dumpS, dumpMB float64
	if w.reg != nil {
		td := time.Now()
		n, err := dumpRegistry(w.reg, filepath.Join(dir, "metrics.txt"), seed)
		dumpS, dumpMB = time.Since(td).Seconds(), float64(n)/1e6
		if err != nil {
			ep.failf("metrics dump: %v", err)
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	ep.TrafficS = time.Since(t1).Seconds()
	ep.CPUS = cpuSeconds() - cpu0

	// Virtual-time outputs.
	st := eng.Stats()
	net1 := snapNet(w.pool.Net)
	ep.Ops = st.OK + st.Failed
	ep.OK, ep.Failed = st.OK, st.Failed
	ep.EndNS = int64(k.Now())
	ep.Msgs = net1.sent - net0.sent
	ep.Bytes = net1.bytes - net0.bytes
	writes, reads := sortedCopy(taps.writes), sortedCopy(taps.reads)
	ep.WriteN, ep.ReadN = len(writes), len(reads)
	ep.WriteP50, ep.WriteP99 = msAt(writes, p50), msAt(writes, p99)
	ep.ReadP50, ep.ReadP99, ep.ReadP999 = msAt(reads, p50), msAt(reads, p99), msAt(reads, p999)
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d\n", ep.Ops, ep.OK, ep.Failed, ep.EndNS, ep.Msgs, ep.Bytes)
	h.Write(taps.digest)
	ep.Digest = hex.EncodeToString(h.Sum(nil))

	// Output checks.
	if !eng.Done() || st.InFlight != 0 || ep.Ops != def.ops {
		ep.failf("engine not drained: done=%v in-flight=%d ok+failed=%d want %d",
			eng.Done(), st.InFlight, ep.Ops, def.ops)
	}
	if ep.WriteN == 0 {
		ep.failf("no write committed")
	}

	// Self-checks: the mechanism each workload exists for ran.
	var sched archive.SchedulerStats
	if w.soak != nil && w.soak.Scheduler() != nil {
		sched = w.soak.Scheduler().Stats()
	}
	if net1.gossip-net0.gossip <= 0 {
		ep.failf("no gossip traffic")
	}
	if w.volDir != "" {
		if n := sched.ScrubPasses - sched0.ScrubPasses; n < 3 {
			ep.failf("%d scrub passes, want at least 3", n)
		}
		if n := sched.Flushes - sched0.Flushes; n < 3 {
			ep.failf("%d group-commit flushes, want at least 3", n)
		}
	}
	if sh := taps.shape; sh.FlashFor > 0 {
		if end := sh.FlashAt + sh.FlashFor; k.Now() < end {
			ep.failf("run ended at %v, before the flash window closed at %v", k.Now(), end)
		}
		in := ratio(float64(taps.inWinHot), float64(taps.inWin))
		out := ratio(float64(taps.outWinHot), float64(taps.outWin))
		if in < 0.5 || in < out+0.25 {
			ep.failf("hot set took %.3f of reads in the flash window and %.3f outside it", in, out)
		}
	}
	if m := w.mesh; m != nil {
		if len(m.locateNS) == 0 || m.hops == 0 {
			ep.failf("mesh: %d locates succeeded with %d hops", len(m.locateNS), m.hops)
		}
		if m.locateFail+m.fetchFail > 0 {
			ep.failf("mesh: %d locates and %d fetches failed", m.locateFail, m.fetchFail)
		}
	}

	if traced {
		ep.Layers = layerMetrics(ep, w, layerInputs{
			reg: reg, tr: tr, timed: timed, taps: taps, events: events, prof: prof.Bytes(),
			net0: net0, net1: net1, blob0: blob0, sched0: sched0, sched: sched,
			ms0: ms0, gc0: gc0, cpuTot0: cpuTot0, dumpS: dumpS, dumpMB: dumpMB,
		})
		if tr.Dropped() != 0 {
			ep.failf("tracer dropped %d events", tr.Dropped())
		}
	}

	// Close; on disk, reopen every volume and compare its fragments
	// with what the archive held.
	var before map[fragKey]int
	if w.volDir != "" {
		before = make(map[fragKey]int)
		for _, id := range w.pool.Arch.StoreNodes() {
			storeFrags(w.pool.Arch.Store(id), before)
		}
	}
	if w.soak != nil {
		tc := time.Now()
		if err := w.soak.Close(); err != nil {
			ep.failf("close world: %v", err)
		}
		if ep.Layers != nil {
			ep.Layers["blobstore.close_s"] = time.Since(tc).Seconds()
		}
	}
	if w.volDir != "" {
		checkReopen(ep, w.volDir, len(w.pool.Arch.StoreNodes()), before)
	}
	ep.PeakRSSMB = peakRSSMB()
	return ep
}

// checkReopen opens every volume under dir afresh and checks that the
// recovered fragments are exactly the ones stored before Close.
func checkReopen(ep *episode, dir string, stores int, before map[fragKey]int) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		ep.failf("list volumes: %v", err)
		return
	}
	sort.Strings(paths)
	if len(paths) != stores {
		ep.failf("%d volume files for %d stores", len(paths), stores)
	}
	after := make(map[fragKey]int)
	for _, p := range paths {
		s, err := blobstore.Open(blobstore.Config{Path: p})
		if err != nil {
			ep.failf("reopen %s: %v", filepath.Base(p), err)
			continue
		}
		storeFrags(s, after)
		if err := s.Close(); err != nil {
			ep.failf("close reopened %s: %v", filepath.Base(p), err)
		}
	}
	if len(before) == 0 {
		ep.failf("the archive stored no fragments")
	}
	if len(after) != len(before) {
		ep.failf("reopen recovered %d distinct fragments, archive held %d", len(after), len(before))
		return
	}
	for key, n := range before {
		if after[key] != n {
			ep.failf("reopen: fragment %s/%d held %d times, recovered %d", key.root.Short(), key.index, n, after[key])
			return
		}
	}
}

// dumpRegistry writes the registry the way osexp -metrics does and
// reports the bytes written.
func dumpRegistry(reg *obs.Registry, path string, seed int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	err = reg.WriteBench(bw, "obs/soak/s"+strconv.FormatInt(seed, 10))
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
