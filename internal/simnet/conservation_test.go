package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

func newTestNet(seed int64, n int, cfg Config) (*sim.Kernel, *Network) {
	k := sim.NewKernel(seed)
	net := New(k, cfg)
	net.AddRandomNodes(n, 100, 4)
	return k, net
}

// TestPartitionConservation: while a partition is active, not one
// message crosses it — every cross-group send is accounted under
// DroppedByPartition and never reaches a handler — on both the plain
// and the batched delivery path.
func TestPartitionConservation(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			k, net := newTestNet(1, 20, Config{
				BaseLatency:   10 * time.Millisecond,
				BatchDelivery: batched,
			})
			group := func(id NodeID) int { return int(id) % 2 }
			for i := 0; i < 20; i++ {
				net.SetPartition(NodeID(i), group(NodeID(i)))
			}
			delivered := make(map[NodeID][]NodeID) // to -> froms
			for i := 0; i < 20; i++ {
				id := NodeID(i)
				net.Node(id).Handle(func(m Message) {
					delivered[m.To] = append(delivered[m.To], m.From)
				})
			}
			cross := 0
			rng := k.Rand()
			for s := 0; s < 500; s++ {
				from := NodeID(rng.Intn(20))
				to := NodeID(rng.Intn(20))
				if from == to {
					continue
				}
				if group(from) != group(to) {
					cross++
				}
				net.Send(from, to, "probe", s, 64)
			}
			k.RunFor(time.Second)
			for to, froms := range delivered {
				for _, from := range froms {
					if group(from) != group(to) {
						t.Fatalf("message crossed partition: %d (g%d) -> %d (g%d)",
							from, group(from), to, group(to))
					}
				}
			}
			st := net.Stats()
			if st.DroppedByPartition != cross {
				t.Fatalf("DroppedByPartition = %d, want %d (every cross-group send)",
					st.DroppedByPartition, cross)
			}
			if cross == 0 {
				t.Fatal("scenario generated no cross-partition traffic")
			}
		})
	}
}

// TestPerLinkByteConservation: the per-link byte counters sum
// exactly to Stats.BytesSent, which matches a manual tally of every
// size handed to Send by a live sender — dropped messages included,
// crashed senders excluded — on both delivery paths.
func TestPerLinkByteConservation(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			k, net := newTestNet(2, 16, Config{
				BaseLatency:   5 * time.Millisecond,
				DropProb:      0.2, // exercise the loss path
				BatchDelivery: batched,
			})
			reg := obs.NewRegistry()
			net.Instrument(reg, nil)
			for i := 0; i < 16; i++ {
				net.Node(NodeID(i)).Handle(func(Message) {})
			}
			net.Crash(3) // crashed sender pays no bytes
			net.SetPartition(5, 1)

			var manual int64
			rng := k.Rand()
			for s := 0; s < 800; s++ {
				from := NodeID(rng.Intn(16))
				to := NodeID(rng.Intn(16))
				size := 32 + rng.Intn(256)
				if !net.Node(from).Down() {
					manual += int64(size)
				}
				net.Send(from, to, "bulk", s, size)
			}
			k.RunFor(time.Second)

			st := net.Stats()
			if st.BytesSent != manual {
				t.Fatalf("Stats.BytesSent = %d, manual tally %d", st.BytesSent, manual)
			}
			var linkSum, aggregate int64
			for _, m := range reg.Snapshot() {
				if m.Key.Layer != "simnet" || m.Kind != "counter" {
					continue
				}
				if strings.HasSuffix(m.Key.Name, "_bytes") && strings.HasPrefix(m.Key.Name, "link_") {
					linkSum += m.Count
				}
				if m.Key.Name == "bytes_sent" {
					aggregate = m.Count
				}
			}
			if linkSum != manual {
				t.Fatalf("per-link byte sum = %d, want %d", linkSum, manual)
			}
			if aggregate != manual {
				t.Fatalf("bytes_sent counter = %d, want %d", aggregate, manual)
			}
			if st.DroppedByLoss == 0 || st.DroppedByCrash == 0 || st.DroppedByPartition == 0 {
				t.Fatalf("scenario failed to exercise all drop paths: %+v", st)
			}
		})
	}
}

// relayWorld wires handlers that re-send on delivery, so batching has
// to preserve ordering even for traffic generated inside a flush.
func relayWorld(seed int64, batched bool) []TraceEvent {
	k := sim.NewKernel(seed)
	net := New(k, Config{BaseLatency: 10 * time.Millisecond, BatchDelivery: batched})
	net.AddRandomNodes(12, 0, 1) // extent 0: all latencies equal -> same-tick batches
	var events []TraceEvent
	net.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	for i := 0; i < 12; i++ {
		id := NodeID(i)
		net.Node(id).Handle(func(m Message) {
			hops := m.Payload.(int)
			if hops > 0 {
				// Fan the relay out to two neighbours on the same tick.
				net.Send(id, (m.From+1)%12, m.Kind, hops-1, m.Size/2+1)
				net.Send(id, (m.From+5)%12, m.Kind, hops-1, m.Size/2+1)
			}
		})
	}
	net.CrashAt(35*time.Millisecond, 7)
	net.RecoverAt(60*time.Millisecond, 7)
	for i := 0; i < 12; i++ {
		net.Send(NodeID(i), NodeID((i*3+1)%12), fmt.Sprintf("k%d", i%3), 3, 128)
	}
	k.RunFor(time.Second)
	return events
}

// TestBatchDeliveryEquivalence pins the batching contract: for layers
// driven purely by deliveries, the batched and unbatched paths produce
// the identical network-event sequence — same events, same order, same
// times — including relays generated mid-flush and a crash window.
func TestBatchDeliveryEquivalence(t *testing.T) {
	plain := relayWorld(9, false)
	batched := relayWorld(9, true)
	if len(plain) != len(batched) {
		t.Fatalf("event counts differ: %d unbatched vs %d batched", len(plain), len(batched))
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("event %d diverged:\nunbatched %+v\nbatched   %+v", i, plain[i], batched[i])
		}
	}
	if len(plain) < 50 {
		t.Fatalf("scenario too small to be meaningful: %d events", len(plain))
	}
}

// TestGrowAtDeterminism: incremental growth is part of the seeded
// trajectory — same seed, same grow schedule, identical node placement
// and topology-callback batches.
func TestGrowAtDeterminism(t *testing.T) {
	build := func() (*Network, *[]int) {
		k := sim.NewKernel(17)
		net := New(k, Config{BaseLatency: time.Millisecond})
		net.AddRandomNodes(8, 50, 2)
		var batches []int
		net.OnTopology(func(added []Node) { batches = append(batches, len(added)) })
		net.GrowAt(10*time.Millisecond, 5, 50, 2)
		net.GrowAt(30*time.Millisecond, 3, 50, 2)
		k.RunFor(time.Second)
		return net, &batches
	}
	a, ab := build()
	b, bb := build()
	if a.Len() != 16 || b.Len() != 16 {
		t.Fatalf("growth lost nodes: %d, %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		na, nb := a.Node(NodeID(i)), b.Node(NodeID(i))
		if na.Addr() != nb.Addr() || na.X() != nb.X() || na.Y() != nb.Y() || na.Domain() != nb.Domain() {
			t.Fatalf("node %d diverged across identical runs", i)
		}
	}
	if fmt.Sprint(*ab) != fmt.Sprint(*bb) {
		t.Fatalf("topology batches diverged: %v vs %v", *ab, *bb)
	}
	if want := fmt.Sprint([]int{5, 3}); fmt.Sprint(*ab) != want {
		t.Fatalf("topology batches = %v, want %v", *ab, want)
	}
}
