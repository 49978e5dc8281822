package oceanstore

// BenchmarkSoakOpsPerCore is the headline soak throughput number:
// completed soak operations per second of wall clock per core, at 10k
// and 100k nodes.  One iteration is a full closed-loop soak run
// (reads, Fig-5 writes, creates, churn) with world construction
// excluded from the timer, so the metric tracks steady-state
// event-processing cost rather than setup.  The checked-in baseline
// (bench/BASELINE_PR7.txt) pins the numbers before the scale work;
// `make bench-gate-pr7` fails if ops/sec regresses.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/core"
	"oceanstore/internal/workload"
)

func BenchmarkSoakOpsPerCore(b *testing.B) {
	for _, nodes := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			const ops = 10_000
			completed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.DefaultSoakConfig(nodes)
				world, err := core.NewSoakWorld(1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng := workload.NewEngine(world.Pool.K, workload.EngineConfig{
					Clients:       cfg.Clients,
					Ops:           ops,
					Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.01},
					Objects:       cfg.Objects,
					ZipfS:         1.1,
					MeanWriteSize: 256,
					ClosedLoop:    true,
					MeanThink:     200 * time.Millisecond,
					RetryBackoff:  time.Second,
				}, world)
				world.StartChurn(time.Minute, 20*time.Second)
				eng.Start()
				b.StartTimer()
				world.Pool.K.RunWhile(func() bool { return !eng.Done() })
				b.StopTimer()
				st := eng.Stats()
				if st.OK == 0 {
					b.Fatal("soak completed no operations")
				}
				completed += st.OK + st.Failed
			}
			perCore := float64(completed) / b.Elapsed().Seconds() / float64(runtime.GOMAXPROCS(0))
			b.ReportMetric(perCore, "ops/s/core")
			b.ReportMetric(float64(completed)/float64(b.N), "ops")
		})
	}
}
