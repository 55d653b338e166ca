package vclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runOrder executes body under a fresh clock where each spawned process
// appends its marks to a shared log, and returns the log.
func runOrder(body func(c *Clock, log *[]string)) []string {
	c := New()
	var log []string
	c.Run(func() { body(c, &log) })
	return log
}

// checkOrder fails t unless got equals want. Each want below is the
// order the pre-batching one-timer-per-dispatch engine produced for the
// same body, recorded before that engine was deleted.
func checkOrder(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("wake order %v, want %v", got, want)
	}
}

// TestCoDeadlineBatchFIFOBySeq pins the batching invariant: when many
// timers share the earliest deadline, the whole batch is dispatched in
// arm (seq) order, as if timers fired one per dispatch.
func TestCoDeadlineBatchFIFOBySeq(t *testing.T) {
	body := func(c *Clock, log *[]string) {
		g := NewGroup(c)
		for i := 0; i < 8; i++ {
			i := i
			g.Go(fmt.Sprintf("p%d", i), func() {
				c.Sleep(10 * time.Millisecond) // all eight share one deadline
				*log = append(*log, fmt.Sprintf("p%d", i))
			})
		}
		g.Wait()
	}
	checkOrder(t, runOrder(body), []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"})
}

// TestBatchInterleavedWithReadyWakes covers the subtle half of the
// equivalence proof: a process woken from a co-deadline batch readies
// other processes (via an event) before the rest of the batch has run.
// Those readied processes must run before the remaining batch members —
// with one timer per dispatch they become runnable before the next
// timer pops, and batched dispatch preserves that by draining the run
// queue before the wake queue.
func TestBatchInterleavedWithReadyWakes(t *testing.T) {
	body := func(c *Clock, log *[]string) {
		g := NewGroup(c)
		ev := NewEvent(c)
		for i := 0; i < 3; i++ {
			i := i
			g.Go(fmt.Sprintf("waiter%d", i), func() {
				ev.Wait()
				*log = append(*log, fmt.Sprintf("waiter%d", i))
			})
		}
		for i := 0; i < 4; i++ {
			i := i
			g.Go(fmt.Sprintf("sleeper%d", i), func() {
				c.Sleep(5 * time.Millisecond)
				if i == 0 {
					// First member of the batch readies all three
					// waiters mid-batch.
					ev.Set()
				}
				*log = append(*log, fmt.Sprintf("sleeper%d", i))
			})
		}
		g.Wait()
	}
	checkOrder(t, runOrder(body), []string{"sleeper0", "waiter0", "waiter1", "waiter2", "sleeper1", "sleeper2", "sleeper3"})
}

// TestBatchMixedQueueTraffic mixes co-deadline timer batches with queue
// handoffs — the sleeper-producer wakes a blocked consumer mid-batch —
// and requires the execution order to match one-timer-per-dispatch
// exactly.
func TestBatchMixedQueueTraffic(t *testing.T) {
	body := func(c *Clock, log *[]string) {
		g := NewGroup(c)
		q := NewQueue[int](c)
		g.Go("consumer", func() {
			for {
				v, ok := q.Get()
				if !ok {
					return
				}
				*log = append(*log, fmt.Sprintf("got%d", v))
			}
		})
		for i := 0; i < 3; i++ {
			i := i
			g.Go(fmt.Sprintf("prod%d", i), func() {
				c.Sleep(3 * time.Millisecond)
				q.Put(i)
				*log = append(*log, fmt.Sprintf("put%d", i))
				c.Sleep(3 * time.Millisecond)
				*log = append(*log, fmt.Sprintf("done%d", i))
			})
		}
		g.Go("closer", func() {
			c.Sleep(20 * time.Millisecond)
			q.Close()
		})
		g.Wait()
	}
	checkOrder(t, runOrder(body), []string{"put0", "got0", "put1", "got1", "put2", "got2", "done0", "done1", "done2"})
}

// TestRingFIFOWraparound drives a Ring through repeated push/pop cycles
// that wrap the backing array without growing it.
func TestRingFIFOWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Fill to 6 of the initial 8 slots, then cycle 100 times: head and
	// tail lap the backing array repeatedly.
	for i := 0; i < 6; i++ {
		r.Push(next)
		next++
	}
	for i := 0; i < 100; i++ {
		v, ok := r.Pop()
		if !ok || v != expect {
			t.Fatalf("pop %d: got (%d,%v), want (%d,true)", i, v, ok, expect)
		}
		expect++
		r.Push(next)
		next++
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d after balanced cycling, want 6", r.Len())
	}
}

// TestRingGrowthPreservesOrder forces several capacity doublings from a
// deliberately wrapped state and checks strict FIFO across them.
func TestRingGrowthPreservesOrder(t *testing.T) {
	var r Ring[int]
	// Wrap the initial ring first so growth has to unwrap a split
	// [head..end)+[0..tail) layout.
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("warmup pop: got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	const n = 1000 // 8 -> 1024 capacity: seven doublings
	for i := 0; i < n; i++ {
		r.Push(i)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := r.Pop(); !ok || v != i {
			t.Fatalf("pop: got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring returned ok")
	}
}

// TestDeadlockDiagnosticCensus pins the diagnostic's content after
// batching: the panic must render one "reason: count" row per blocked
// reason, including interned per-semaphore reasons, with the right
// counts.
func TestDeadlockDiagnosticCensus(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
		census := map[string]int{}
		for _, line := range strings.Split(msg, "\n") {
			var label string
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "%s %d", &label, &n); err == nil {
				census[label] = n
			}
		}
		// The driver's Group.Wait parks on the group's done event, so
		// the event census includes it alongside the explicit waiter.
		want := map[string]int{"queue": 2, "event": 2, "sem:gate": 1}
		for label, n := range want {
			if census[label] != n {
				t.Errorf("census[%s] = %d, want %d (full diagnostic: %q)", label, census[label], n, msg)
			}
		}
	}()
	c := New()
	c.Run(func() {
		g := NewGroup(c)
		q := NewQueue[int](c)
		ev := NewEvent(c)
		sem := NewSemaphore(c, "gate", 1)
		g.Go("q1", func() { q.Get() })
		g.Go("q2", func() { q.Get() })
		g.Go("e1", func() { ev.Wait() })
		g.Go("s1", func() {
			sem.Acquire(1)
			sem.Acquire(1) // starves itself: nobody releases
		})
		g.Wait()
	})
}

// TestSelfWakeMakesNoHandoffs covers the self-wake fast path: a lone
// process whose own timer always heads the next batch keeps the
// execution slot through every Sleep, with no channel send at all.
func TestSelfWakeMakesNoHandoffs(t *testing.T) {
	c := New()
	var before, after uint64
	c.Run(func() {
		before = c.Handoffs()
		for i := 0; i < 100; i++ {
			c.Sleep(time.Duration(i%3) * time.Millisecond)
		}
		after = c.Handoffs()
	})
	if n := after - before; n != 0 {
		t.Fatalf("lone sleeper made %d handoffs over 100 sleeps, want 0", n)
	}
}

// TestEventPingPongOneHandoffPerWake pins the cost of a genuine wake:
// two processes alternating through a pair of events hand the slot
// back and forth with exactly one send per wake.
func TestEventPingPongOneHandoffPerWake(t *testing.T) {
	const rounds = 50
	c := New()
	var before, after uint64
	c.Run(func() {
		ping, pong := NewEvent(c), NewEvent(c)
		g := NewGroup(c)
		g.Go("pinger", func() {
			exchange := func() {
				ping.Set()
				pong.Wait()
				pong.Reset()
			}
			// One warm-up round so the ponger is parked on ping when
			// the window opens, not still waiting in the spawn queue.
			exchange()
			before = c.Handoffs()
			for i := 0; i < rounds; i++ {
				exchange()
			}
			after = c.Handoffs()
		})
		g.Go("ponger", func() {
			for i := 0; i <= rounds; i++ {
				ping.Wait()
				ping.Reset()
				pong.Set()
			}
		})
		g.Wait()
	})
	// Each round is two wakes: pinger wakes ponger, ponger wakes pinger.
	if n, want := after-before, uint64(2*rounds); n != want {
		t.Fatalf("%d rounds of ping-pong made %d handoffs, want %d (one per wake)", rounds, n, want)
	}
}
