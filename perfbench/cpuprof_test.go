package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeInnermostModule(t *testing.T) {
	stacks := [][]string{
		// Standard-library crypto under the signer counts as crypt,
		// not as byz further out.
		{"crypto/ed25519.Sign", "oceanstore/internal/crypt.(*Signer).Sign", "oceanstore/internal/byz.(*Group).Submit"},
		// Allocation under simnet counts as simnet.
		{"runtime.mallocgc", "runtime.newobject", "oceanstore/internal/simnet.(*Network).Send", "oceanstore/internal/sim.(*Kernel).run"},
		// No internal frame at all: the garbage collector.
		{"runtime.gcBgMarkWorker"},
		// The benchmark's own frames are not internal; the sample goes
		// to the internal caller beneath them.
		{"time.Now", "main.(*timedTarget).Do", "oceanstore/internal/workload.(*Engine).issue"},
		// An internal module outside the reported list.
		{"oceanstore/internal/bloom.(*Filter).Add"},
		// Empty stack.
		{},
	}
	weights := []int64{30, 20, 25, 10, 5, 10}
	got := attribute(stacks, weights)
	want := map[string]float64{
		"cpu.crypt":    0.30,
		"cpu.simnet":   0.20,
		"cpu.runtime":  0.35,
		"cpu.workload": 0.10,
		"cpu.other":    0.05,
	}
	sum := 0.0
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	for _, m := range cpuModules {
		if _, ok := got["cpu."+m]; !ok {
			t.Errorf("cpu.%s missing from the result", m)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"oceanstore/internal/sim.(*Kernel).run":  "sim",
		"oceanstore/internal/simnet.New":         "simnet",
		"oceanstore/internal/core.NewPool.func1": "core",
		"oceanstore/internal/erasure/sub.F":      "erasure",
		"runtime.mallocgc":                       "",
		"main.main":                              "",
		"oceanstore/cmd/osexp.runSoak":           "",
		"oceanstore/internalx/fake.F":            "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in a named function so the profile has a frame to find.
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

var sink int

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, st := range p.stacks {
		for _, fn := range st {
			if fn == "oceanstore/perfbench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("spin frame not found in %d stacks; first: %v", len(p.stacks), p.stacks[0])
	}
	shares := attribute(p.stacks, p.weights)
	if shares["cpu.runtime"] < 0.99 {
		t.Fatalf("a profile with no internal frames should be all runtime, got %v", shares["cpu.runtime"])
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage accepted")
	}
}
