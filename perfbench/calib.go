package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
)

// The host's speed drifts.  On the shared 2-vCPU host the benchmark was
// written on, the CPU time per op of the same workload fell by a third
// within half an hour, and by more than half within an hour and a
// quarter.  So a run also times a fixed task (calibrate, in a process
// of its own, several times) and scales its CPU-time metrics by
// calibRef over the task's median time: they read as CPU time on a host
// where the task takes calibRef.  The task uses only the standard
// library, so a change to the program cannot move it.
const calibRef = 0.27 // seconds of CPU

// minCalibs is how many times a run times the task at least.
const minCalibs = 5

// calibrate runs a fixed task that uses only the standard library and
// returns its CPU time in seconds.  Its parts stand for the
// simulator's: ed25519 signatures and SHA-256 digests, map inserts and
// lookups, small allocations that keep the collector busy, and
// dependent loads over a table far larger than the caches.
func calibrate() float64 {
	c0 := cpuSeconds()
	var sink uint64

	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 256)
	for i := 0; i < 400; i++ {
		msg[i%len(msg)] = byte(i)
		sig := ed25519.Sign(key, msg)
		if ed25519.Verify(key.Public().(ed25519.PublicKey), msg, sig) {
			sink++
		}
		sum := sha256.Sum256(sig)
		sink += uint64(sum[0])
	}

	type node struct {
		next *node
		val  [6]uint64
	}
	m := make(map[uint64]*node)
	var head *node
	for i := uint64(0); i < 1<<18; i++ {
		n := &node{next: head}
		n.val[0] = i
		m[i*0x9e3779b97f4a7c15] = n
		if i%4 == 0 {
			head = n
		}
	}
	for i := uint64(0); i < 1<<19; i++ {
		if n := m[(i>>1)*0x9e3779b97f4a7c15]; n != nil {
			sink += n.val[0]
		}
	}
	runtime.GC()

	const slots = 1 << 23
	tab := make([]uint32, slots)
	for i := range tab {
		tab[i] = uint32(i) * 2654435761
	}
	p := uint32(0)
	for i := uint32(0); i < 1<<20; i++ {
		p = tab[(p^i)&(slots-1)]
	}
	sink += uint64(p)

	calibSink = sink + uint64(len(m)) + head.val[0]
	return cpuSeconds() - c0
}

// calibSink keeps the task's results live.
var calibSink uint64
