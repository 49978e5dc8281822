// Command perfbench is OceanStore's benchmark.  It runs one workload
// (or all of them) and prints its metrics: the end-to-end metrics of an
// untraced run, or with -trace 1 the per-layer metrics of a traced
// run.  The last line of standard output is one JSON object.
//
// Each world is built and driven in a child process of its own (this
// binary re-executed with -episode), one at a time, so peak RSS is the
// world's own and no two worlds ever share the machine.  See
// BENCHMARK.md for the workloads, the metrics and the load model.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload soak-100k --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run builds its world at least minSetups times, and keeps building
// it (up to maxSetups) until the builds add up to minSetupTime of wall
// time, so setup_s is a median even for worlds that build in a
// fraction of a second, where a single build is mostly noise.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 4 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds give equal virtual-time outputs")
	seconds := fs.Int("seconds", 10, "wall seconds to keep starting episodes for")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	episodeMode := fs.String("episode", "", "run one episode in this process (setup, full or traced) and print it as JSON")
	dir := fs.String("dir", "", "scratch directory of an episode")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *episodeMode == modeCalib {
		ep := &episode{Mode: modeCalib, CalibS: calibrate()}
		if err := json.NewEncoder(stdout).Encode(ep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *episodeMode != "" {
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		ep := runEpisode(def, *seed, *episodeMode, *dir)
		if err := json.NewEncoder(stdout).Encode(ep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	var defs []*workloadDef
	if *name == "all" {
		defs = workloads
	} else if def := findWorkload(*name); def != nil {
		defs = []*workloadDef{def}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	code := 0
	for _, def := range defs {
		var res *result
		var err error
		if *trace == 1 {
			res, err = measureTraced(def, *seed, root)
		} else {
			res, err = measure(def, *seed, time.Duration(*seconds)*time.Second, root)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
			code = 1
			continue
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	report []string // human-readable lines printed before it
}

func (r *result) print(w io.Writer) {
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Fprintln(w, string(b))
}

func (r *result) linef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// spawn runs one episode in a child process.
func spawn(def *workloadDef, seed int64, mode, root string) (*episode, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, mode+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out bytes.Buffer
	cmd := exec.Command(self, "-episode", mode, "-workload", def.name,
		"-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// An episode dies with the runner, so killing the runner stops
	// every process of the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s episode: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var ep episode
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ep); err != nil {
		return nil, fmt.Errorf("%s episode output: %w", mode, err)
	}
	if (mode == modeFull || mode == modeTraced) && ep.Ops == 0 && len(ep.Errors) == 0 {
		return nil, errors.New("episode resolved no operation")
	}
	return &ep, nil
}

// checkEpisodes fails the result on any episode error and on any two
// full episodes whose virtual-time outputs differ.
func (r *result) checkEpisodes(eps []*episode) {
	for i, ep := range eps {
		for _, e := range ep.Errors {
			r.Correct = false
			r.linef("  FAIL (%s episode %d): %s", ep.Mode, i+1, e)
		}
		if ep.Mode != modeSetup && ep.Digest != eps[0].Digest {
			r.Correct = false
			r.linef("  FAIL: %s episode %d took another trajectory than episode 1 (digest %.12s vs %.12s)",
				ep.Mode, i+1, ep.Digest, eps[0].Digest)
		}
	}
}

// measure is the untraced run: full episodes while another fits in the
// wall budget (at least one), each after a timing of the calibration
// task, then setup-only episodes until the world has been built often
// enough (see minSetups), then more timings of the task up to
// minCalibs.
func measure(def *workloadDef, seed int64, budget time.Duration, root string) (*result, error) {
	start := time.Now()
	var full, all []*episode
	var calibs []float64
	calib := func() error {
		ep, err := spawn(def, seed, modeCalib, root)
		if err == nil {
			calibs = append(calibs, ep.CalibS)
		}
		return err
	}
	for {
		t0 := time.Now()
		if err := calib(); err != nil {
			return nil, err
		}
		ep, err := spawn(def, seed, modeFull, root)
		if err != nil {
			return nil, err
		}
		full = append(full, ep)
		all = append(all, ep)
		// Start another episode only if one as long as this one still
		// ends within the budget, so a run lasts about the budget
		// whatever an episode costs.
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	var setups, setupWalls []float64
	var setupTotal float64
	for _, ep := range full {
		setups = append(setups, ep.SetupS)
		setupWalls = append(setupWalls, ep.SetupWallS)
		setupTotal += ep.SetupWallS
	}
	for len(setups) < minSetups ||
		(setupTotal < minSetupTime.Seconds() && len(setups) < maxSetups) {
		ep, err := spawn(def, seed, modeSetup, root)
		if err != nil {
			return nil, err
		}
		all = append(all, ep)
		setups = append(setups, ep.SetupS)
		setupWalls = append(setupWalls, ep.SetupWallS)
		setupTotal += ep.SetupWallS
	}
	for len(calibs) < minCalibs {
		if err := calib(); err != nil {
			return nil, err
		}
	}
	scale := calibRef / median(calibs)

	r := &result{Correct: true, Metrics: make(map[string]metricValue)}
	ep := full[0]
	r.Attempted, r.Failed = ep.Ops, ep.Failed
	r.linef("workload %s  seed %d  %d full episode(s), %d world build(s)  virtual end %v  trajectory %.12s",
		def.name, seed, len(full), len(setups), time.Duration(ep.EndNS), ep.Digest)
	r.checkEpisodes(all)

	var opsPerS, cpuUS, rss []float64
	for _, e := range full {
		opsPerS = append(opsPerS, ratio(float64(e.Ops), e.TrafficS))
		cpuUS = append(cpuUS, ratio(e.CPUS*1e6, float64(e.Ops)))
		rss = append(rss, e.PeakRSSMB)
	}
	n := len(full)
	r.linef("  per-episode ops_per_s: %s", fmtList(opsPerS, 1))
	r.linef("  per-episode cpu_us_per_op: %s", fmtList(cpuUS, 2))
	r.linef("  per-build setup_s: %s", fmtList(setups, 4))
	r.linef("  calibration task: %s s; CPU metrics scaled by %.2f/median = %.4f", fmtList(calibs, 4), calibRef, scale)
	values := map[string]float64{
		"setup_s":           median(setups) * scale,
		"cpu_us_per_op":     median(cpuUS) * scale,
		"peak_rss_mb":       median(rss),
		"write_p50_ms":      ep.WriteP50,
		"write_p99_ms":      ep.WriteP99,
		"wire_bytes_per_op": ratio(float64(ep.Bytes), float64(ep.Ops)),
	}
	counts := map[string]string{
		"setup_s":           fmt.Sprintf("scaled CPU, median of %d builds; unscaled %.4f s, wall %.4f s", len(setups), median(setups), median(setupWalls)),
		"cpu_us_per_op":     fmt.Sprintf("scaled, median of %d episodes; unscaled %.4f us", n, median(cpuUS)),
		"peak_rss_mb":       fmt.Sprintf("median of %d episodes", n),
		"write_p50_ms":      fmt.Sprintf("n=%d successful writes", ep.WriteN),
		"write_p99_ms":      fmt.Sprintf("n=%d successful writes", ep.WriteN),
		"wire_bytes_per_op": fmt.Sprintf("%d bytes over %d ops", ep.Bytes, ep.Ops),
	}
	for _, d := range endToEnd {
		v := values[d.name]
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		r.linef("  %-20s %14.4f %-6s (%s)", d.name, v, d.unit, counts[d.name])
	}
	r.linef("  %-20s %14.4f %-6s (median of %d episodes, %d ops each; wall clock, unbounded, also in the traced run)",
		"ops_per_s", median(opsPerS), "1/s", n, ep.Ops)
	r.linef("  %-20s %14.6f %-6s (%d failed of %d ops; unbounded, also in the traced run)",
		"fail_frac", ratio(float64(ep.Failed), float64(ep.Ops)), "frac", ep.Failed, ep.Ops)
	if ep.ReadN > 0 && ep.ReadP50 > 0 {
		for _, q := range []struct {
			name string
			v    float64
		}{{"read_p50_ms", ep.ReadP50}, {"read_p99_ms", ep.ReadP99}, {"read_p999_ms", ep.ReadP999}} {
			r.linef("  %-20s %14.4f %-6s (n=%d successful reads; unbounded, also in the traced run)", q.name, q.v, "ms", ep.ReadN)
		}
	} else {
		r.linef("  read_p50_ms, read_p99_ms, read_p999_ms: not reported (reads complete in zero virtual time here)")
	}
	return r, nil
}

// measureTraced is the traced run: one untraced episode for the
// baseline wall time, then the same seed traced.  The two must take
// the same trajectory.
func measureTraced(def *workloadDef, seed int64, root string) (*result, error) {
	base, err := spawn(def, seed, modeFull, root)
	if err != nil {
		return nil, err
	}
	traced, err := spawn(def, seed, modeTraced, root)
	if err != nil {
		return nil, err
	}
	r := &result{Correct: true, Metrics: make(map[string]metricValue)}
	r.Attempted, r.Failed = traced.Ops, traced.Failed
	r.linef("workload %s  seed %d  traced  trajectory %.12s", def.name, seed, traced.Digest)
	r.checkEpisodes([]*episode{base, traced})
	if traced.Layers == nil {
		traced.Layers = make(map[string]float64)
	}
	traced.Layers["trace.overhead_frac"] = ratio(traced.TrafficS, base.TrafficS) - 1
	traced.Layers["ops_per_s"] = ratio(float64(base.Ops), base.TrafficS)
	var cpuSum float64
	for _, d := range perLayer {
		v := traced.Layers[d.name]
		if strings.HasPrefix(d.name, "cpu.") {
			cpuSum += v
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		r.linef("  %-32s %14.6f %s", d.name, v, d.unit)
	}
	if cpuSum < 0.999 || cpuSum > 1.001 {
		r.Correct = false
		r.linef("  FAIL: cpu.* shares sum to %.6f", cpuSum)
	}
	return r, nil
}

func fmtList(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}
