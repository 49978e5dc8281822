package sim

import (
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestTiesBreakByInsertion(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterNestsRelative(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.After(10*time.Millisecond, func() {
		k.After(5*time.Millisecond, func() { at = k.Now() })
	})
	k.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10*time.Millisecond, func() { fired++ })
	k.At(30*time.Millisecond, func() { fired++ })
	k.RunUntil(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEveryAndCancel(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var cancel func()
	cancel = k.Every(10*time.Millisecond, func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	k.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (cancel must stop the ticker)", count)
	}
}

// TestEveryCancelFromOtherEvent: a ticker cancelled from a different
// event stops without firing again, a ticker cancelled before its first
// tick never fires, and the dead tickers' last scheduled ticks drain
// without effect.
func TestEveryCancelFromOtherEvent(t *testing.T) {
	k := NewKernel(1)
	count := 0
	cancel := k.Every(10*time.Millisecond, func() { count++ })
	k.At(35*time.Millisecond, func() { cancel() })
	never := 0
	cancelNow := k.Every(50*time.Millisecond, func() { never++ })
	cancelNow() // cancelled before the first tick
	k.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3 (10,20,30ms then cancelled at 35ms)", count)
	}
	if never != 0 {
		t.Fatalf("pre-cancelled ticker fired %d times", never)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after cancelled tickers drained, want 0", k.Pending())
	}
}

// TestRunUntilPastEmptyQueue: advancing the clock beyond the last
// event lands it on the target, so later After calls measure from the
// right base, and RunUntil on an empty queue still advances.
func TestRunUntilPastEmptyQueue(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(5*time.Millisecond, func() { fired = true })
	k.RunUntil(time.Second) // far past the only event
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", k.Now())
	}
	k.RunUntil(2 * time.Second)
	if k.Now() != 2*time.Second {
		t.Fatalf("empty-queue RunUntil left clock at %v", k.Now())
	}
	var at time.Duration
	k.After(time.Millisecond, func() { at = k.Now() })
	k.Run()
	if at != 2*time.Second+time.Millisecond {
		t.Fatalf("After from the advanced clock fired at %v", at)
	}
}

// TestRunWhileChecksCondBeforeEachEvent: cond is consulted before
// every event, and the first false stops the run with the remaining
// events still queued and the clock on the last executed event.
func TestRunWhileChecksCondBeforeEachEvent(t *testing.T) {
	k := NewKernel(1)
	fired, checks := 0, 0
	for i := 1; i <= 5; i++ {
		k.At(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	k.RunWhile(func() bool { checks++; return fired < 3 })
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if checks != 4 {
		t.Fatalf("cond checked %d times, want 4 (once per event plus the stopping check)", checks)
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("clock = %v, want 3ms", k.Now())
	}
}

// TestRunWhileReturnsOnEmptyQueue: an always-true cond does not spin
// once the queue drains, and events scheduled during the run execute.
func TestRunWhileReturnsOnEmptyQueue(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(time.Millisecond, func() {
		fired++
		k.After(time.Millisecond, func() { fired++ })
	})
	k.RunWhile(func() bool { return true })
	if fired != 2 || k.Pending() != 0 {
		t.Fatalf("fired = %d, pending = %d; want 2, 0", fired, k.Pending())
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v, want 2ms", k.Now())
	}
}

// TestRunForAdvancesPastDrainedQueue: RunFor(d) lands the clock on
// now+d even when the queue empties before then, and leaves events
// beyond the window queued.
func TestRunForAdvancesPastDrainedQueue(t *testing.T) {
	k := NewKernel(1)
	k.At(10*time.Millisecond, func() {})
	k.RunFor(50 * time.Millisecond)
	if k.Now() != 50*time.Millisecond {
		t.Fatalf("clock = %v, want 50ms", k.Now())
	}
	fired := false
	k.After(30*time.Millisecond, func() { fired = true })
	k.RunFor(20 * time.Millisecond)
	if fired || k.Now() != 70*time.Millisecond || k.Pending() != 1 {
		t.Fatalf("fired=%v clock=%v pending=%d; want false, 70ms, 1", fired, k.Now(), k.Pending())
	}
	k.RunFor(10 * time.Millisecond)
	if !fired || k.Now() != 80*time.Millisecond {
		t.Fatalf("fired=%v clock=%v; want true, 80ms", fired, k.Now())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.At(10*time.Millisecond, func() {
		k.At(0, func() { at = k.Now() })
	})
	k.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(42)
		var trace []int64
		for i := 0; i < 50; i++ {
			k.After(time.Duration(k.Rand().Intn(100))*time.Millisecond, func() {
				trace = append(trace, int64(k.Now()), k.Rand().Int63())
			})
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
