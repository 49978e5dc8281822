package main

import (
	"runtime"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/obs"
	"oceanstore/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics of an untraced run.  Every one is
// defined and non-zero on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"wire_bytes_per_op", "B/op"},
}

// perLayer are the metrics of a traced run.  A layer a workload does
// not exercise reports 0.  The first five are end-to-end metrics that
// cannot carry a bound, and the untraced report prints them too.
// ops_per_s is wall-clock throughput: the simulator runs on one core,
// so its wall time is its CPU time plus whatever time the host gives to
// other processes, and on a shared host that share varies from run to
// run by more than a bound can allow; cpu_us_per_op is the bounded
// measure of its speed.  fail_frac and read_* are 0 on some workloads
// (reads are instant on the soaks, and no workload fails an operation).
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"ops_per_s", "1/s"},
		{"fail_frac", "frac"},
		{"read_p50_ms", "ms"},
		{"read_p99_ms", "ms"},
		{"read_p999_ms", "ms"},

		{"sim.events_per_op", "events/op"},
		{"sim.ns_per_event", "ns"},
		{"simnet.msgs_per_op", "msgs/op"},
		{"simnet.delivered_frac", "frac"},
		{"simnet.retries_per_op", "retries/op"},
		{"byz.agree_p50_ms", "ms"},
		{"byz.agree_p99_ms", "ms"},
		{"byz.commit_frac", "frac"},
		{"byz.retransmits_per_submit", "retx/submit"},
		{"byz.view_installs", "count"},
		{"core.do_write_us_p50", "us"},
		{"core.do_write_us_p99", "us"},
		{"epidemic.replays_per_read", "replays/read"},
		{"core.do_read_us_p50", "us"},
		{"core.do_read_us_p99", "us"},
		{"replica.gossip_rounds", "count"},
		{"replica.gossip_moved_per_round", "moved/round"},
		{"archive.archives_per_kwrite", "archives/kwrite"},
		{"archive.frags_per_archive", "frags/archive"},
		{"core.do_create_us_p50", "us"},
		{"core.do_create_us_p99", "us"},
		{"scrub.passes", "count"},
		{"scrub.frags_per_pass", "frags/pass"},
		{"scrub.store_flushes", "count"},
		{"blobstore.fsyncs_per_kop", "fsyncs/kop"},
		{"blobstore.bytes_written_per_op", "B/op"},
		{"blobstore.gets_per_op", "gets/op"},
		{"blobstore.close_s", "s"},
		{"plaxton.mesh_build_s", "s"},
		{"plaxton.locate_p50_ms", "ms"},
		{"plaxton.locate_p99_ms", "ms"},
		{"plaxton.locate_hops_mean", "hops"},
		{"plaxton.route_ok_frac", "frac"},
		{"core.fetch_p50_ms", "ms"},
		{"core.fetch_p99_ms", "ms"},
		{"introspect.promotes", "count"},
		{"introspect.demotes", "count"},
		{"introspect.denied_frac", "frac"},
		{"introspect.replicas_end", "count"},
		{"obs.dump_s", "s"},
		{"obs.dump_mb", "MB"},
		{"obs.series", "count"},
		{"obs.zero_series_frac", "frac"},
		{"go.alloc_bytes_per_op", "B/op"},
		{"go.allocs_per_op", "allocs/op"},
		{"go.gc_cycles", "count"},
		{"go.gc_cpu_frac", "frac"},
	}
	for _, m := range cpuModules {
		ms = append(ms, metricDef{"cpu." + m, "share"})
	}
	ms = append(ms,
		metricDef{"cpu.runtime", "share"},
		metricDef{"cpu.other", "share"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	return ms
}()

// layerInputs is what a traced episode measured around its traffic
// phase.
type layerInputs struct {
	reg    *obs.Registry
	tr     *obs.Tracer
	timed  *timedTarget
	taps   *tapLog
	events int
	prof   []byte

	net0, net1    netSnap
	blob0         blobstore.Stats
	sched0, sched archive.SchedulerStats
	ms0           runtime.MemStats
	gc0, cpuTot0  float64
	dumpS, dumpMB float64
}

// layerMetrics computes the per-layer metrics of a traced episode from
// the counters the program exports, the tracer, the runner's own
// spans and the CPU profile.  blobstore.close_s and trace.overhead_frac
// are filled in later, once the world is closed and the untraced
// episode is known.
func layerMetrics(ep *episode, w *world, in layerInputs) map[string]float64 {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	gc1, cpuTot1 := gcCPU()

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	ops := float64(ep.Ops)
	snap := in.reg.Snapshot()
	counter := func(layer, name string) float64 {
		var sum int64
		for _, s := range snap {
			if s.Kind == "counter" && s.Key.Layer == layer && s.Key.Name == name {
				sum += s.Count
			}
		}
		return float64(sum)
	}
	us := func(kind workload.OpKind, ppm int64) float64 {
		return float64(percentile(sortedCopy(in.timed.ns[kind]), ppm)) / 1e3
	}

	m["fail_frac"] = ratio(float64(ep.Failed), ops)
	m["read_p50_ms"], m["read_p99_ms"], m["read_p999_ms"] = ep.ReadP50, ep.ReadP99, ep.ReadP999

	m["sim.events_per_op"] = ratio(float64(in.events), ops)
	m["sim.ns_per_event"] = ratio(ep.TrafficS*1e9, float64(in.events))
	sent := float64(in.net1.sent - in.net0.sent)
	m["simnet.msgs_per_op"] = ratio(sent, ops)
	m["simnet.delivered_frac"] = ratio(float64(in.net1.delivered-in.net0.delivered), sent)
	m["simnet.retries_per_op"] = ratio(float64(in.net1.retries-in.net0.retries), ops)

	agree := byzAgreement(in.tr)
	m["byz.agree_p50_ms"], m["byz.agree_p99_ms"] = msAt(agree, p50), msAt(agree, p99)
	submits := counter("byz", "submits")
	m["byz.commit_frac"] = ratio(counter("byz", "commits"), submits)
	m["byz.retransmits_per_submit"] = ratio(counter("byz", "client_retransmits"), submits)
	m["byz.view_installs"] = counter("byz", "view_installs")
	m["core.do_write_us_p50"], m["core.do_write_us_p99"] = us(workload.OpWrite, p50), us(workload.OpWrite, p99)

	reads := float64(in.taps.kinds[workload.OpRead])
	writes := float64(in.taps.kinds[workload.OpWrite])
	m["epidemic.replays_per_read"] = ratio(counter("epidemic", "replays"), reads)
	m["core.do_read_us_p50"], m["core.do_read_us_p99"] = us(workload.OpRead, p50), us(workload.OpRead, p99)

	rounds := counter("replica", "gossip_rounds")
	m["replica.gossip_rounds"] = rounds
	m["replica.gossip_moved_per_round"] = ratio(counter("replica", "gossip_moved"), rounds)

	archives := counter("archive", "archives")
	m["archive.archives_per_kwrite"] = ratio(1000*archives, writes)
	m["archive.frags_per_archive"] = ratio(counter("archive", "frags_stored"), archives)
	m["core.do_create_us_p50"], m["core.do_create_us_p99"] = us(workload.OpCreate, p50), us(workload.OpCreate, p99)

	passes := float64(in.sched.ScrubPasses - in.sched0.ScrubPasses)
	m["scrub.passes"] = passes
	m["scrub.frags_per_pass"] = ratio(float64(in.sched.ScrubbedFrags-in.sched0.ScrubbedFrags), passes)
	m["scrub.store_flushes"] = float64(in.sched.Flushes - in.sched0.Flushes)
	if w.soak != nil {
		blob, _ := w.soak.BlobStats()
		m["blobstore.fsyncs_per_kop"] = ratio(1000*float64(blob.Syncs-in.blob0.Syncs), ops)
		m["blobstore.bytes_written_per_op"] = ratio(float64(blob.BytesWritten-in.blob0.BytesWritten), ops)
		m["blobstore.gets_per_op"] = ratio(float64(blob.Gets-in.blob0.Gets), ops)
	}

	if mr := w.mesh; mr != nil {
		m["plaxton.mesh_build_s"] = w.meshBuildS
		locate, fetch := sortedCopy(mr.locateNS), sortedCopy(mr.fetchNS)
		m["plaxton.locate_p50_ms"], m["plaxton.locate_p99_ms"] = msAt(locate, p50), msAt(locate, p99)
		m["plaxton.locate_hops_mean"] = ratio(float64(mr.hops), float64(len(locate)))
		routesOK := counter("plaxton", "routes_ok")
		m["plaxton.route_ok_frac"] = ratio(routesOK, routesOK+counter("plaxton", "routes_fail"))
		m["core.fetch_p50_ms"], m["core.fetch_p99_ms"] = msAt(fetch, p50), msAt(fetch, p99)
	}

	if w.soak != nil && w.soak.Controller() != nil {
		ctrl := w.soak.Controller()
		cs := ctrl.Stats()
		m["introspect.promotes"] = float64(cs.Promotes)
		m["introspect.demotes"] = float64(cs.Demotes)
		m["introspect.denied_frac"] = ratio(float64(cs.Denied), float64(cs.Promotes+cs.Denied))
		m["introspect.replicas_end"] = float64(ctrl.TierSize())
	}

	if w.reg != nil {
		m["obs.dump_s"], m["obs.dump_mb"] = in.dumpS, in.dumpMB
		zero := 0
		for _, s := range snap {
			if s.Count == 0 && s.Value == 0 {
				zero++
			}
		}
		m["obs.series"] = float64(len(snap))
		m["obs.zero_series_frac"] = ratio(float64(zero), float64(len(snap)))
	}

	m["go.alloc_bytes_per_op"] = ratio(float64(ms1.TotalAlloc-in.ms0.TotalAlloc), ops)
	m["go.allocs_per_op"] = ratio(float64(ms1.Mallocs-in.ms0.Mallocs), ops)
	m["go.gc_cycles"] = float64(ms1.NumGC - in.ms0.NumGC)
	m["go.gc_cpu_frac"] = ratio(gc1-in.gc0, cpuTot1-in.cpuTot0)

	if prof, err := parseCPUProfile(in.prof); err != nil {
		ep.failf("%v", err)
	} else {
		for k, v := range attribute(prof.stacks, prof.weights) {
			m[k] = v
		}
	}
	return m
}

// byzAgreement pairs each traced byz submit with its commit by request
// ID and returns the virtual submit-to-commit times, sorted.
func byzAgreement(tr *obs.Tracer) []int64 {
	submitted := make(map[uint64]int64)
	committed := make(map[uint64]bool)
	var out []int64
	for _, e := range tr.Events() {
		if e.Layer != "byz" {
			continue
		}
		switch e.Event {
		case "submit":
			if _, seen := submitted[e.ID]; !seen {
				submitted[e.ID] = e.T
			}
		case "commit":
			if t0, ok := submitted[e.ID]; ok && !committed[e.ID] {
				committed[e.ID] = true
				out = append(out, e.T-t0)
			}
		}
	}
	return sortedCopy(out)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
