package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	c.Go("sleeper", func() {
		c.Sleep(40 * time.Millisecond)
		done <- c.Now()
	})
	got := <-done
	if got != 40*time.Millisecond {
		t.Fatalf("Now after Sleep(40ms) = %v, want 40ms", got)
	}
}

func TestVirtualSleepIsInstantInRealTime(t *testing.T) {
	c := NewVirtual()
	start := time.Now()
	done := make(chan struct{})
	c.Go("sleeper", func() {
		c.Sleep(10 * time.Hour)
		close(done)
	})
	<-done
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual 10h sleep took %v of real time", elapsed)
	}
}

func TestVirtualMultipleSleepersOrdered(t *testing.T) {
	c := NewVirtual()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		i, d := i, d
		c.Go("sleeper", func() {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncFiresAtScheduledTime(t *testing.T) {
	c := NewVirtual()
	fired := make(chan time.Duration, 1)
	done := make(chan struct{})
	c.Go("main", func() {
		c.AfterFunc(5*time.Millisecond, func() { fired <- c.Now() })
		c.Sleep(10 * time.Millisecond)
		close(done)
	})
	<-done
	if got := <-fired; got != 5*time.Millisecond {
		t.Fatalf("AfterFunc fired at %v, want 5ms", got)
	}
}

func TestAfterFuncStop(t *testing.T) {
	c := NewVirtual()
	var fired atomic.Bool
	done := make(chan struct{})
	c.Go("main", func() {
		tm := c.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
		if !tm.Stop() {
			t.Error("Stop before fire reported false")
		}
		c.Sleep(10 * time.Millisecond)
		close(done)
	})
	<-done
	if fired.Load() {
		t.Fatal("canceled AfterFunc fired")
	}
}

func TestWaiterWakeBeforeWait(t *testing.T) {
	c := NewVirtual()
	done := make(chan struct{})
	c.Go("main", func() {
		w := c.NewWaiter()
		w.Wake()
		c.Wait(w) // must not block or corrupt accounting
		c.Sleep(time.Millisecond)
		close(done)
	})
	<-done
}

func TestWaiterCrossActor(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	w := c.NewWaiter()
	c.Go("waiter", func() {
		c.Wait(w)
		done <- c.Now()
	})
	c.Go("waker", func() {
		c.Sleep(7 * time.Millisecond)
		w.Wake()
	})
	if got := <-done; got != 7*time.Millisecond {
		t.Fatalf("woken at %v, want 7ms", got)
	}
}

// TestYieldRunsAfterSameInstantActors checks that a yielding actor resumes
// only once the actor that woke it has blocked, and at the same instant —
// even when the waker is slow in real time.
func TestYieldRunsAfterSameInstantActors(t *testing.T) {
	c := NewVirtual()
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	w := c.NewWaiter()
	done := make(chan time.Duration, 1)
	c.Go("woken", func() {
		c.Wait(w)
		c.Yield()
		record("woken")
		done <- c.Now()
	})
	c.Go("waker", func() {
		c.Sleep(time.Millisecond)
		w.Wake()
		time.Sleep(10 * time.Millisecond) // real time only: still the same instant
		record("waker")
		c.Sleep(time.Millisecond)
	})
	if got := <-done; got != time.Millisecond {
		t.Fatalf("yielder resumed at %v, want 1ms", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "waker" || order[1] != "woken" {
		t.Fatalf("order = %v, want [waker woken]", order)
	}
}

func TestMailboxPutGet(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	got := make(chan int, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go("receiver", func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			v, ok := m.Get()
			if !ok {
				t.Error("Get returned !ok on open mailbox")
				return
			}
			got <- v
		}
	})
	c.Go("sender", func() {
		for i := 1; i <= 3; i++ {
			c.Sleep(time.Millisecond)
			m.Put(i)
		}
	})
	wg.Wait()
	for want := 1; want <= 3; want++ {
		if v := <-got; v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	c := NewVirtual()
	type result struct {
		v       int
		ok, to  bool
		elapsed time.Duration
	}
	res := make(chan result, 1)
	m := NewMailbox[int](c)
	c.Go("receiver", func() {
		start := c.Now()
		v, ok, to := m.GetTimeout(25 * time.Millisecond)
		res <- result{v, ok, to, c.Now() - start}
	})
	r := <-res
	if !r.to || r.ok {
		t.Fatalf("GetTimeout = (%v, ok=%v, timedOut=%v), want timeout", r.v, r.ok, r.to)
	}
	if r.elapsed != 25*time.Millisecond {
		t.Fatalf("timeout elapsed %v, want 25ms", r.elapsed)
	}
}

func TestMailboxTimeoutThenPutDelivers(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	done := make(chan bool, 1)
	c.Go("receiver", func() {
		if _, _, to := m.GetTimeout(time.Millisecond); !to {
			t.Error("first GetTimeout should time out")
		}
		// A stale woken waiter must not swallow the next Put.
		v, ok := m.Get()
		done <- ok && v == 42
	})
	c.Go("sender", func() {
		c.Sleep(10 * time.Millisecond)
		m.Put(42)
	})
	if !<-done {
		t.Fatal("value not delivered after a prior timeout")
	}
}

func TestMailboxClose(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	m.Put(1)
	m.Close()
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("drain after close = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := m.Get(); ok {
		t.Fatal("Get on closed drained mailbox reported ok")
	}
	if m.Put(2) {
		t.Fatal("Put on closed mailbox reported success")
	}
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	c := NewVirtual()
	m := NewMailbox[int](c)
	done := make(chan bool, 1)
	c.Go("receiver", func() {
		_, ok := m.Get()
		done <- ok
	})
	c.Go("closer", func() {
		c.Sleep(time.Millisecond)
		m.Close()
	})
	if ok := <-done; ok {
		t.Fatal("Get on closed mailbox reported ok")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	if c.Virtual() {
		t.Fatal("NewReal().Virtual() = true")
	}
	t0 := c.Now()
	c.Sleep(5 * time.Millisecond)
	if c.Now()-t0 < 4*time.Millisecond {
		t.Fatal("real Sleep returned too early")
	}
	w := c.NewWaiter()
	c.AfterFunc(time.Millisecond, w.Wake)
	c.Wait(w)

	m := NewMailbox[string](c)
	go m.Put("hi")
	if v, ok := m.Get(); !ok || v != "hi" {
		t.Fatalf("real mailbox Get = (%q, %v)", v, ok)
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	c := NewVirtual()
	panicked := make(chan bool, 1)
	c.Go("stuck", func() {
		defer func() { panicked <- recover() != nil }()
		w := c.NewWaiter()
		c.Wait(w) // nothing will ever wake this
	})
	if !<-panicked {
		t.Fatal("expected virtual-deadlock panic")
	}
}

func TestStopWakesSleepers(t *testing.T) {
	c := NewVirtual()
	released := make(chan struct{})
	started := make(chan struct{})
	c.Go("sleeper", func() {
		close(started)
		c.Sleep(time.Hour)
		close(released)
	})
	// A second actor keeps the sim from advancing to the hour mark.
	c.Go("spinner", func() {
		<-started
		c.Stop()
	})
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release sleeping actor")
	}
}

func TestGroupWaitsForAllActors(t *testing.T) {
	c := NewVirtual()
	done := make(chan time.Duration, 1)
	c.Go("main", func() {
		g := c.NewGroup()
		for i := 1; i <= 4; i++ {
			d := time.Duration(i) * 10 * time.Millisecond
			g.Go("worker", func() { c.Sleep(d) })
		}
		g.Wait()
		done <- c.Now()
	})
	if got := <-done; got != 40*time.Millisecond {
		t.Fatalf("group finished at %v, want 40ms (slowest worker)", got)
	}
}

func TestGroupWaitOnEmptyGroup(t *testing.T) {
	c := NewVirtual()
	done := make(chan struct{})
	c.Go("main", func() {
		g := c.NewGroup()
		g.Wait() // must not block
		close(done)
	})
	<-done
}

func TestGroupMultipleWaiters(t *testing.T) {
	c := NewVirtual()
	results := NewMailbox[int](c)
	g := c.NewGroup()
	c.Go("spawn", func() {
		g.Go("worker", func() { c.Sleep(5 * time.Millisecond) })
		for i := 0; i < 3; i++ {
			i := i
			c.Go("waiter", func() {
				g.Wait()
				results.Put(i)
			})
		}
	})
	seen := map[int]bool{}
	collect := make(chan bool, 1)
	c.Go("collect", func() {
		for i := 0; i < 3; i++ {
			v, ok := results.Get()
			if !ok {
				collect <- false
				return
			}
			seen[v] = true
		}
		collect <- true
	})
	if !<-collect || len(seen) != 3 {
		t.Fatalf("waiters woken: %v", seen)
	}
}
