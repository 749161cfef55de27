// Package vclock provides a clock abstraction that runs in one of two modes:
//
//   - Real mode: thin wrappers around the time package, for running the stack
//     over real networks (the cmd/ daemons and examples).
//   - Virtual mode: a discrete-event simulated clock, for deterministic and
//     fast wide-area experiments. Time advances only when every managed actor
//     is blocked in a clock primitive, jumping straight to the next timer.
//
// All blocking coordination between simulated components must go through the
// clock's primitives (Sleep, Waiter, Mailbox, AfterFunc) so that the virtual
// scheduler can account for runnable actors. Goroutines participating in a
// virtual simulation must be spawned with Clock.Go.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock is a real or virtual time source. The zero value is not usable; use
// NewReal or NewVirtual.
type Clock struct {
	virtual bool
	start   time.Time // real mode: origin for Now

	mu       sync.Mutex
	now      time.Duration // virtual mode: current virtual time
	runnable int           // virtual mode: actors not blocked in the clock
	timers   timerHeap
	seq      uint64
	stopped  bool

	actorSeq int
	actors   map[int]*actorState
}

type actorState struct {
	name   string
	state  string // "running" or a description of the blocking point
	daemon bool
}

// NewReal returns a Clock backed by the wall clock.
func NewReal() *Clock {
	return &Clock{start: time.Now()}
}

// NewVirtual returns a discrete-event virtual Clock starting at time zero
// with no actors. Spawn actors with Go before relying on time advancing.
func NewVirtual() *Clock {
	return &Clock{virtual: true, actors: make(map[int]*actorState)}
}

// Virtual reports whether the clock is a virtual (simulated) clock.
func (c *Clock) Virtual() bool { return c.virtual }

// Stopped reports whether a virtual clock has been stopped.
func (c *Clock) Stopped() bool {
	if !c.virtual {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Now returns the time elapsed since the clock's origin.
func (c *Clock) Now() time.Duration {
	if !c.virtual {
		return time.Since(c.start)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Go spawns fn as a managed actor. In real mode it is a plain goroutine. In
// virtual mode the actor is counted as runnable until it exits, and its
// blocking points are tracked for deadlock diagnostics. name is used only in
// diagnostics.
func (c *Clock) Go(name string, fn func()) { c.spawn(name, fn, false) }

// GoDaemon spawns fn as a daemon actor: one that is expected to block
// indefinitely waiting for work (accept loops, connection readers, reply
// demultiplexers). When only daemon actors remain blocked with no pending
// timers, the simulation quiesces instead of reporting a deadlock.
func (c *Clock) GoDaemon(name string, fn func()) { c.spawn(name, fn, true) }

func (c *Clock) spawn(name string, fn func(), daemon bool) {
	if !c.virtual {
		go fn()
		return
	}
	c.mu.Lock()
	c.actorSeq++
	id := c.actorSeq
	c.actors[id] = &actorState{name: name, state: "running", daemon: daemon}
	c.runnable++
	c.mu.Unlock()
	go func() {
		defer c.actorExit(id)
		fn()
	}()
}

func (c *Clock) actorExit(id int) {
	c.mu.Lock()
	delete(c.actors, id)
	// No defer: decRunnableLocked may panic on true deadlock, and that path
	// releases the mutex itself before panicking.
	c.decRunnableLocked()
	c.mu.Unlock()
}

// Stop halts a virtual clock: pending and future timers never fire, and
// blocked actors are woken (their Wait calls return). Components should
// observe their own shutdown signals; Stop is a backstop so that tests do not
// leak goroutines blocked in the simulator. No-op in real mode.
func (c *Clock) Stop() {
	if !c.virtual {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	for _, t := range c.timers {
		if t.w != nil {
			c.wakeLocked(t.w)
		}
	}
	c.timers = nil
}

// Sleep blocks the calling actor for d. In virtual mode this may advance
// virtual time if every other actor is blocked.
func (c *Clock) Sleep(d time.Duration) {
	if !c.virtual {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	if d <= 0 {
		return
	}
	c.waitFor(d, fmt.Sprintf("sleep %v", d))
}

// Yield blocks the calling actor until every other actor runnable at the
// current virtual instant has blocked, then resumes it at the same instant.
// An actor woken as a side effect of another actor's step — a connection
// Close failing its pending calls, say — runs concurrently with that actor;
// yielding puts its next step after the other's in every run, so same-seed
// simulations stay identical. In real mode Yield returns immediately.
func (c *Clock) Yield() {
	if c.virtual {
		c.waitFor(0, "yield")
	}
}

// waitFor blocks the calling actor on a virtual timer d from now. A zero d
// still waits: timers fire only once every runnable actor has blocked.
func (c *Clock) waitFor(d time.Duration, label string) {
	w := c.NewWaiter()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.scheduleLocked(c.now+d, nil, w)
	c.mu.Unlock()
	c.WaitAs(w, label)
}

// Timer is a cancelable scheduled callback created by AfterFunc.
type Timer struct {
	c *Clock
	// virtual mode
	t *timer
	// real mode
	rt *time.Timer
}

// Stop cancels the timer. It reports whether the timer was canceled before
// firing.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if t.rt != nil {
		return t.rt.Stop()
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.t.canceled || t.t.fired {
		return false
	}
	t.t.canceled = true
	// Remove the entry from the heap immediately instead of leaving it to be
	// popped and skipped when virtual time reaches it: a workload that arms
	// and cancels timers faster than time passes them (every successful RPC
	// with a timeout does) would otherwise accumulate dead heap entries
	// without bound.
	if i := t.t.index; i >= 0 && i < len(t.c.timers) && t.c.timers[i] == t.t {
		heap.Remove(&t.c.timers, i)
	}
	return true
}

// AfterFunc schedules fn to run after d. In virtual mode fn runs as a
// transient actor; it may use clock primitives but should not block
// indefinitely.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if !c.virtual {
		return &Timer{c: c, rt: time.AfterFunc(d, fn)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.scheduleLocked(c.now+d, fn, nil)
	if c.runnable == 0 && !c.stopped {
		// Scheduled from outside the simulation (or from a quiesced state):
		// kick the event loop so the timer is not stranded.
		c.advanceLocked()
	}
	return &Timer{c: c, t: t}
}

// Waiter is a one-shot wake-up point. Exactly one actor may Wait on it; any
// number of actors or timers may Wake it, but only the first Wake has effect.
type Waiter struct {
	c  *Clock
	ch chan struct{}
	// guarded by c.mu in virtual mode, by once in real mode
	woken   bool
	waiting bool
	once    sync.Once
}

// NewWaiter returns a fresh waiter bound to the clock.
func (c *Clock) NewWaiter() *Waiter {
	return &Waiter{c: c, ch: make(chan struct{})}
}

// Wake unblocks the waiter's Wait call. Safe to call multiple times and from
// timer callbacks; only the first call has effect.
func (w *Waiter) Wake() {
	if !w.c.virtual {
		w.once.Do(func() { close(w.ch) })
		return
	}
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.c.wakeLocked(w)
}

func (c *Clock) wakeLocked(w *Waiter) {
	if w.woken {
		return
	}
	w.woken = true
	// Transfer a runnable credit only if an actor is actually blocked in
	// Wait; waking a not-yet-waited waiter must not inflate the count.
	if w.waiting {
		c.runnable++
	}
	close(w.ch)
}

// Wait blocks the calling actor until the waiter is woken.
func (c *Clock) Wait(w *Waiter) { c.WaitAs(w, "wait") }

// WaitAs is Wait with a diagnostic label describing the blocking point.
func (c *Clock) WaitAs(w *Waiter, label string) {
	if !c.virtual {
		<-w.ch
		return
	}
	c.mu.Lock()
	if w.woken {
		// Woken before we blocked: nothing to account for.
		c.mu.Unlock()
		<-w.ch
		return
	}
	if c.stopped {
		// Shutting down: do not park actors forever.
		c.wakeLocked(w)
		c.mu.Unlock()
		<-w.ch
		return
	}
	w.waiting = true
	c.blockLocked(label)
	c.mu.Unlock()
	<-w.ch
	// The waker incremented runnable on our behalf.
}

// blockLocked marks the calling actor blocked and advances virtual time if it
// was the last runnable actor.
func (c *Clock) blockLocked(label string) {
	c.setState(label)
	c.decRunnableLocked()
}

// setState is a placeholder for per-actor diagnostic state; per-goroutine
// tracking would require goroutine-local storage, so only aggregate
// diagnostics are kept (see dumpLocked).
func (c *Clock) setState(string) {}

func (c *Clock) decRunnableLocked() {
	c.runnable--
	if c.runnable < 0 {
		if c.stopped {
			// After a deadlock panic or Stop, accounting may be off for
			// actors unwinding; clamp instead of cascading panics.
			c.runnable = 0
			return
		}
		panic("vclock: runnable count went negative")
	}
	if c.runnable == 0 && !c.stopped {
		c.advanceLocked()
	}
}

// advanceLocked fires timers until at least one actor is runnable again.
// Called with c.mu held and runnable == 0.
func (c *Clock) advanceLocked() {
	for c.runnable == 0 {
		if c.stopped {
			return
		}
		if len(c.timers) == 0 {
			if c.onlyDaemonsLocked() {
				// Every remaining actor is a daemon waiting for work: the
				// simulation is idle, not deadlocked.
				return
			}
			// Mark stopped so unwinding actors do not re-enter advance or
			// trip the negative-runnable check, then release the lock before
			// panicking so cleanup paths can still acquire it.
			c.stopped = true
			msg := "vclock: virtual deadlock — all actors blocked and no timers pending\n" + c.dumpLocked()
			c.mu.Unlock()
			panic(msg)
		}
		t := heap.Pop(&c.timers).(*timer)
		if t.canceled {
			continue
		}
		t.fired = true
		if t.when > c.now {
			c.now = t.when
		}
		if t.w != nil {
			c.wakeLocked(t.w)
			continue
		}
		// Callback timer: run as a transient actor, tracked like any other.
		c.actorSeq++
		id := c.actorSeq
		c.actors[id] = &actorState{name: "timer-callback", state: "running"}
		c.runnable++
		fn := t.fn
		go func() {
			defer c.actorExit(id)
			fn()
		}()
	}
}

func (c *Clock) onlyDaemonsLocked() bool {
	for _, a := range c.actors {
		if !a.daemon {
			return false
		}
	}
	return true
}

// Diag is a point-in-time view of the scheduler, suitable for metrics
// gauges and debug dumps.
type Diag struct {
	Virtual  bool
	Now      time.Duration
	Actors   int
	Runnable int
	Timers   int
}

// Diag reports scheduler state. Safe to call from any goroutine, including
// non-actors such as a metrics exposition handler.
func (c *Clock) Diag() Diag {
	if !c.virtual {
		return Diag{Now: c.Now()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := 0
	for _, t := range c.timers {
		if !t.canceled && !t.fired {
			pending++
		}
	}
	return Diag{Virtual: true, Now: c.now, Actors: len(c.actors), Runnable: c.runnable, Timers: pending}
}

func (c *Clock) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time %v, %d actors:\n", c.now, len(c.actors))
	names := make([]string, 0, len(c.actors))
	for _, a := range c.actors {
		names = append(names, a.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  actor %s\n", n)
	}
	return b.String()
}

// timer is a scheduled event: either wakes a waiter or runs a callback.
type timer struct {
	when     time.Duration
	seq      uint64
	fn       func()
	w        *Waiter
	canceled bool
	fired    bool
	index    int
}

func (c *Clock) scheduleLocked(when time.Duration, fn func(), w *Waiter) *timer {
	c.seq++
	t := &timer{when: when, seq: c.seq, fn: fn, w: w}
	heap.Push(&c.timers, t)
	return t
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
