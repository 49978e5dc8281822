// Command benchjson converts `go test -bench` text output into a JSON
// report, pairing each benchmark's current numbers with a checked-in
// baseline so performance regressions show up as a reviewable diff.
//
// Usage:
//
//	go test -run '^$' -bench SoakOpsPerCore -benchtime 1x . | benchjson -baseline bench/BASELINE_PR7.txt -o BENCH_PR7.json
//
// The parser understands the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs — and keeps whatever units
// appear (ns/op, MB/s, B/op, allocs/op, custom ReportMetric units like
// events/s).  Benchmarks present on only one side are still reported,
// with the other side null.
//
// With -gate PCT the command becomes a regression gate: after writing
// the report it exits non-zero if any benchmark's current ns/op is
// more than PCT percent slower than its baseline, printing one line
// per offender.  -gate-allocs PCT does the same for allocs/op, so a
// zero-alloc hot path stays zero-alloc: a benchmark whose baseline is
// 0 allocs/op trips the gate the moment it allocates at all.
// Benchmarks missing from either side never trip either gate (new
// benchmarks and retired ones are not regressions).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics maps unit → value for one benchmark run, e.g. "ns/op" → 3512891.
type metrics map[string]float64

type report struct {
	GeneratedBy string  `json:"generated_by"`
	Baseline    string  `json:"baseline_file,omitempty"`
	Benchmarks  []entry `json:"benchmarks"`
}

type entry struct {
	Name     string  `json:"name"`
	Pkg      string  `json:"pkg"`
	Baseline metrics `json:"baseline,omitempty"`
	Current  metrics `json:"current,omitempty"`
	// Speedup is baseline ns/op divided by current ns/op: >1 is faster.
	Speedup float64 `json:"speedup,omitempty"`
	// AllocRatio is baseline allocs/op divided by current allocs/op:
	// >1 is leaner.  Omitted unless both sides ran with -benchmem and
	// allocate at all (a 0-alloc side would make the ratio meaningless).
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// parse reads `go test -bench` output, tracking the current package from
// "pkg:" lines and collecting one metrics map per benchmark.  A repeated
// benchmark name (-count > 1) keeps the last run.
func parse(r io.Reader) (map[string]metrics, map[string]string, error) {
	results := make(map[string]metrics)
	pkgs := make(map[string]string)
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the GOMAXPROCS suffix (BenchmarkFoo-8) so reports from
		// differently sized machines key the same way.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := make(metrics)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = v
		}
		if len(m) == 0 {
			continue
		}
		results[name] = m
		pkgs[name] = pkg
	}
	return results, pkgs, sc.Err()
}

// regression describes one benchmark that tripped the gate.
type regression struct {
	name           string
	base, cur, pct float64
}

// gate compares current against baseline for one unit and returns
// every benchmark more than maxPct percent worse (higher), sorted
// worst first.  Benchmarks absent from either side are skipped, as
// are benchmarks that never report the unit.  A zero baseline with a
// non-zero current is an infinite regression — a hot path that was
// allocation-free and now allocates always trips.
func gate(baseline, current map[string]metrics, unit string, maxPct float64) []regression {
	var out []regression
	for name, cur := range current {
		base, ok := baseline[name]
		if !ok {
			continue
		}
		b, bok := base[unit]
		c, cok := cur[unit]
		if !bok || !cok {
			continue
		}
		var pct float64
		switch {
		case c <= b:
			continue
		case b == 0:
			pct = math.Inf(1)
		default:
			pct = (c - b) / b * 100
		}
		if pct > maxPct {
			out = append(out, regression{name: name, base: b, cur: c, pct: pct})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pct != out[j].pct {
			return out[i].pct > out[j].pct
		}
		return out[i].name < out[j].name
	})
	return out
}

// runGate applies one unit's gate and prints offenders; returns
// whether anything tripped.
func runGate(baseline, current map[string]metrics, baselinePath, unit string, maxPct float64) bool {
	regs := gate(baseline, current, unit, maxPct)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate passed — no benchmark more than %.0f%% worse in %s than %s\n",
			maxPct, unit, baselinePath)
		return false
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) more than %.0f%% worse in %s than %s:\n",
		len(regs), maxPct, unit, baselinePath)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %-40s %12.0f -> %12.0f %s  (+%.1f%%)\n",
			r.name, r.base, r.cur, unit, r.pct)
	}
	return true
}

func parseFile(path string) (map[string]metrics, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return parse(f)
}

func main() {
	baselinePath := flag.String("baseline", "", "prior `go test -bench` output to compare against")
	out := flag.String("o", "", "output file (default stdout)")
	gatePct := flag.Float64("gate", -1, "exit non-zero if any benchmark is more than `pct` percent slower than baseline")
	gateAllocs := flag.Float64("gate-allocs", -1, "exit non-zero if any benchmark's allocs/op is more than `pct` percent above baseline (0-alloc baselines trip on any allocation)")
	flag.Parse()

	current, curPkgs, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	var baseline map[string]metrics
	var basePkgs map[string]string
	if *baselinePath != "" {
		baseline, basePkgs, err = parseFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	names := make(map[string]bool)
	for n := range current {
		names[n] = true
	}
	for n := range baseline {
		names[n] = true
	}
	rep := report{GeneratedBy: "cmd/benchjson", Baseline: *baselinePath}
	for n := range names {
		e := entry{Name: n, Pkg: curPkgs[n], Baseline: baseline[n], Current: current[n]}
		if e.Pkg == "" {
			e.Pkg = basePkgs[n]
		}
		if b, c := e.Baseline["ns/op"], e.Current["ns/op"]; b > 0 && c > 0 {
			e.Speedup = float64(int(b/c*100+0.5)) / 100
		}
		if b, c := e.Baseline["allocs/op"], e.Current["allocs/op"]; b > 0 && c > 0 {
			e.AllocRatio = float64(int(b/c*100+0.5)) / 100
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		if rep.Benchmarks[i].Pkg != rep.Benchmarks[j].Pkg {
			return rep.Benchmarks[i].Pkg < rep.Benchmarks[j].Pkg
		}
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	}
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	if *gatePct >= 0 || *gateAllocs >= 0 {
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate/-gate-allocs require -baseline")
			os.Exit(1)
		}
		tripped := false
		if *gatePct >= 0 {
			tripped = runGate(baseline, current, *baselinePath, "ns/op", *gatePct) || tripped
		}
		if *gateAllocs >= 0 {
			tripped = runGate(baseline, current, *baselinePath, "allocs/op", *gateAllocs) || tripped
		}
		if tripped {
			os.Exit(1)
		}
	}
}
