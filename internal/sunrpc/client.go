package sunrpc

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// ProcNameFunc renders (prog, proc) as a human-readable operation name for
// trace spans. A nil func falls back to numeric formatting.
type ProcNameFunc func(prog, proc uint32) string

func procLabel(fn ProcNameFunc, prog, proc uint32) string {
	if fn != nil {
		return fn(prog, proc)
	}
	return fmt.Sprintf("%d/%d", prog, proc)
}

// RetransmitPolicy configures same-XID retransmission for calls issued with a
// timeout. The client resends the identical call message when no reply has
// arrived after Initial, doubling the interval up to Max on each attempt,
// until the call's overall timeout expires. Because every attempt carries the
// same XID, a reply to any of them completes the call, and the server's
// duplicate-request cache keeps the extra copies from re-executing the
// handler — together giving at-least-once transmission with exactly-once
// effects.
type RetransmitPolicy struct {
	// Initial is the wait before the first retransmission. Values <= 0
	// default to 1s.
	Initial time.Duration
	// Max caps the exponentially growing wait. Zero defaults to 8*Initial;
	// values below Initial are clamped to Initial.
	Max time.Duration
	// PerByte stretches the first wait by the request frame's size: the
	// effective initial timeout is Initial + len(frame)*PerByte. Large
	// coalesced WRITEs spend real transfer time on bandwidth-limited links;
	// a fixed timeout sized for small calls would retransmit them while the
	// first copy is still in flight, doubling exactly the traffic the
	// coalescing saved. Zero leaves the timeout size-independent.
	PerByte time.Duration
	// Jitter bounds the deterministic per-attempt jitter added to each wait.
	// The jitter is a hash of (Seed, XID, attempt), not a draw from a shared
	// PRNG, so simulations stay reproducible regardless of actor scheduling.
	Jitter time.Duration
	// Seed perturbs the jitter hash so different runs (or nodes) can desynchronize.
	Seed int64
}

func (p RetransmitPolicy) withDefaults() RetransmitPolicy {
	if p.Initial <= 0 {
		p.Initial = time.Second
	}
	if p.Max == 0 {
		p.Max = 8 * p.Initial
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	return p
}

// jitterFor derives the deterministic jitter for one retransmission attempt.
func (p RetransmitPolicy) jitterFor(xid uint32, attempt int) time.Duration {
	if p.Jitter <= 0 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	put64 := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put64(uint64(p.Seed))
	put64(uint64(xid))
	put64(uint64(attempt))
	return time.Duration(h.Sum64() % uint64(p.Jitter))
}

// Client issues RPC calls over a single connection. Calls may be issued
// concurrently from many actors; replies are matched by XID. The client owns
// a demux actor reading the connection.
type Client struct {
	clk  *vclock.Clock
	conn transport.Conn
	cred Cred

	mu      sync.Mutex
	xid     uint32
	pending map[uint32]*pendingCall
	closed  bool
	counts  map[uint64]int64 // prog<<32|proc -> calls sent
	retr    *RetransmitPolicy

	node     *obs.Node
	procName ProcNameFunc

	metRetransmits *obs.Counter
	metBackoff     *obs.Histogram
	metShedRetries *obs.Counter
}

type pendingCall struct {
	w    *vclock.Waiter // current attempt's waiter; swapped under Client.mu on retransmit
	body *xdr.Decoder
	stat AcceptStat
	err  error
	done bool
	// retryable marks calls whose retransmit loop is armed (policy + timeout):
	// for those a TryLater reply is swallowed like a lost reply — the backoff
	// timer drives the retry under the same XID. Single-send calls surface
	// TryLater as *Error instead.
	retryable bool
	shed      int // TryLater replies swallowed
}

// NewClient wraps conn as an RPC client using cred for every call. The
// client starts a demux actor on the clock.
func NewClient(clk *vclock.Clock, conn transport.Conn, cred Cred) *Client {
	c := &Client{
		clk:     clk,
		conn:    conn,
		cred:    cred,
		pending: make(map[uint32]*pendingCall),
		counts:  make(map[uint64]int64),
	}
	clk.GoDaemon("sunrpc-client-demux", c.demux)
	return c
}

// SetObs attaches a trace node: every call records a "call <PROC>" span at
// that node, and calls issued without an explicit request ID mint a fresh
// one there — this is how the emulated kernel client stamps each RPC.
func (c *Client) SetObs(node *obs.Node, procName ProcNameFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.node = node
	c.procName = procName
	if reg := node.Registry(); reg != nil {
		reg.SetHelp("gvfs_rpc_retransmits_total", "Same-XID retransmissions sent after an unanswered wait.")
		reg.SetHelp("gvfs_rpc_retransmit_backoff", "Backoff waits preceding each retransmission, in virtual nanoseconds.")
		reg.SetHelp("gvfs_rpc_shed_retries_total", "TRY_LATER replies swallowed and left to the retransmission timer.")
		c.metRetransmits = reg.Counter(obs.Label("gvfs_rpc_retransmits_total", "node", node.Name()))
		c.metBackoff = reg.Histogram(obs.Label("gvfs_rpc_retransmit_backoff", "node", node.Name()), obs.DurationBuckets)
		c.metShedRetries = reg.Counter(obs.Label("gvfs_rpc_shed_retries_total", "node", node.Name()))
	}
}

// SetRetransmit enables same-XID retransmission for timed calls. Calls with
// timeout 0 (wait forever) still send only once — they have no timer to drive
// resends. Without a policy the client keeps its single-send behavior.
func (c *Client) SetRetransmit(p RetransmitPolicy) {
	p = p.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retr = &p
}

// SetCred replaces the credential used for subsequent calls.
func (c *Client) SetCred(cred Cred) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cred = cred
}

// Call invokes (prog, vers, proc) with pre-encoded args and blocks for the
// reply body. A non-Success accept status is returned as *Error.
func (c *Client) Call(prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	return c.CallTimeout(prog, vers, proc, args, 0)
}

// CallTimeout is Call with a deadline; timeout 0 means wait forever. On
// timeout the pending entry is abandoned (a late reply is dropped), matching
// at-least-once RPC semantics where the caller simply retries.
func (c *Client) CallTimeout(prog, vers, proc uint32, args []byte, timeout time.Duration) (*xdr.Decoder, error) {
	return c.CallTraced(0, prog, vers, proc, args, timeout)
}

// CallTraced is CallTimeout carrying an explicit trace request ID, used by
// proxies forwarding a traced call so the downstream RPC shares the
// originating ID. A zero reqID mints a fresh ID when a trace node is
// attached.
func (c *Client) CallTraced(reqID uint64, prog, vers, proc uint32, args []byte, timeout time.Duration) (*xdr.Decoder, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// Skip XID 0 and any XID still pending: after a uint32 wrap (or with
	// long-abandoned timeout-0 calls parked in the map) reusing a live XID
	// would hand one call's reply to another.
	for {
		c.xid++
		if c.xid == 0 {
			continue
		}
		if _, busy := c.pending[c.xid]; !busy {
			break
		}
	}
	xid := c.xid
	pc := &pendingCall{
		w:         c.clk.NewWaiter(),
		retryable: c.retr != nil && timeout > 0,
	}
	c.pending[xid] = pc
	c.counts[uint64(prog)<<32|uint64(proc)]++
	cred := c.cred
	node, procName := c.node, c.procName
	c.mu.Unlock()

	if reqID == 0 {
		reqID = node.Mint() // nil node mints 0: call stays untraced
	}
	start := node.Now()
	body, retrans, stall, err := c.send(xid, prog, vers, proc, cred, reqID, args, pc, timeout)
	if node.Tracing() {
		c.mu.Lock()
		shed := pc.shed
		c.mu.Unlock()
		sp := obs.Span{
			Req:   reqID,
			Op:    "call " + procLabel(procName, prog, proc),
			Bytes: int64(len(args)),
			Start: start,
			End:   node.Now(),
		}
		if retrans > 0 {
			sp.Detail = fmt.Sprintf("retransmit=%d", retrans)
		}
		if shed > 0 {
			if sp.Detail != "" {
				sp.Detail += " "
			}
			sp.Detail += fmt.Sprintf("shed=%d", shed)
		}
		if stall > 0 {
			// stall= is the virtual time between the first and the last
			// transmission of this XID: the latency the loss/shedding added.
			// Latency attribution moves it out of the wire segment.
			if sp.Detail != "" {
				sp.Detail += " "
			}
			sp.Detail += "stall=" + stall.String()
		}
		if body != nil {
			sp.Bytes += int64(body.Remaining())
		}
		if err != nil {
			sp.Err = err.Error()
		}
		node.Record(sp)
	}
	return body, err
}

// send transmits the call and blocks for its completion, retransmitting under
// the same XID when a policy is installed. It returns the reply body, how
// many retransmissions were sent, and the stall — virtual time between the
// first and the last transmission, i.e. the extra latency retransmission
// waits added to this call.
func (c *Client) send(xid, prog, vers, proc uint32, cred Cred, reqID uint64, args []byte, pc *pendingCall, timeout time.Duration) (*xdr.Decoder, int, time.Duration, error) {
	// The call message is built once in a pooled encoder and re-Sent verbatim
	// on every retransmission; nothing retains msg past a Send (transports
	// either copy or write synchronously), so the encoder is recycled as soon
	// as this attempt loop is over.
	enc := bufpool.GetEncoder()
	defer bufpool.PutEncoder(enc)
	msg := marshalCall(enc, xid, prog, vers, proc, cred, reqID, args)
	firstSend := c.clk.Now()
	if err := c.conn.Send(msg); err != nil {
		c.mu.Lock()
		delete(c.pending, xid)
		c.mu.Unlock()
		return nil, 0, 0, ErrClosed
	}

	c.mu.Lock()
	policy := c.retr
	c.mu.Unlock()

	if policy == nil || timeout <= 0 {
		// Single-send path: one overall timer (if any), one wait.
		var timer *vclock.Timer
		if timeout > 0 {
			timer = c.clk.AfterFunc(timeout, func() {
				c.mu.Lock()
				if p, ok := c.pending[xid]; ok && !p.done {
					p.err = ErrTimeout
					p.done = true
					delete(c.pending, xid)
				}
				c.mu.Unlock()
				pc.w.Wake()
			})
		}
		c.clk.WaitAs(pc.w, "rpc call")
		if timer != nil {
			timer.Stop()
		}
		body, err := c.finish(xid, pc)
		return body, 0, 0, err
	}

	deadline := c.clk.Now() + timeout
	rto := policy.Initial
	if policy.PerByte > 0 {
		rto += time.Duration(len(msg)) * policy.PerByte
	}
	// A size-stretched initial may exceed the configured cap; the cap bounds
	// backoff growth, never the transfer-time floor.
	effMax := policy.Max
	if effMax < rto {
		effMax = rto
	}
	retrans := 0
	lastSend := firstSend
	for attempt := 0; ; attempt++ {
		wait := rto + policy.jitterFor(xid, attempt)
		last := false
		if remaining := deadline - c.clk.Now(); remaining <= wait {
			wait = remaining
			last = true
		}

		c.mu.Lock()
		if pc.done {
			c.mu.Unlock()
			break
		}
		w := pc.w
		c.mu.Unlock()
		timer := c.clk.AfterFunc(wait, w.Wake)
		c.clk.WaitAs(w, "rpc call")
		timer.Stop()

		c.mu.Lock()
		if pc.done {
			c.mu.Unlock()
			break
		}
		if stopped := c.clk.Stopped(); last || stopped {
			pc.err = ErrTimeout
			if stopped {
				pc.err = ErrClosed
			}
			pc.done = true
			delete(c.pending, xid)
			c.mu.Unlock()
			break
		}
		// This attempt timed out: install a fresh waiter for the next one
		// before releasing the lock, so the demux hands a late reply to the
		// waiter we are about to block on.
		pc.w = c.clk.NewWaiter()
		c.mu.Unlock()

		if err := c.conn.Send(msg); err != nil {
			c.mu.Lock()
			if !pc.done {
				pc.err = ErrClosed
				pc.done = true
				delete(c.pending, xid)
			}
			c.mu.Unlock()
			break
		}
		retrans++
		lastSend = c.clk.Now()
		c.metRetransmits.Inc()
		c.metBackoff.ObserveDuration(wait)
		rto *= 2
		if rto > effMax {
			rto = effMax
		}
	}
	body, err := c.finish(xid, pc)
	return body, retrans, lastSend - firstSend, err
}

// finish evaluates a completed (or shutdown-released) call under the lock.
func (c *Client) finish(xid uint32, pc *pendingCall) (*xdr.Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !pc.done {
		// Woken without a completion: the clock is shutting down and
		// released all waiters.
		delete(c.pending, xid)
		return nil, ErrClosed
	}
	if pc.err != nil {
		return nil, pc.err
	}
	if pc.stat != Success {
		return nil, &Error{Stat: pc.stat}
	}
	return pc.body, nil
}

// Counts returns a snapshot of calls sent, keyed by prog<<32|proc.
func (c *Client) Counts() map[uint64]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Close tears down the connection and fails all pending calls with
// ErrClosed.
func (c *Client) Close() error {
	return c.conn.Close() // demux observes the close and fails pending calls
}

func (c *Client) demux() {
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			c.failAll()
			return
		}
		m, err := parseMsg(raw)
		if err == nil && m.mtype == msgReply && m.acceptStat == Success {
			// The caller gets the results in an exact-size slice of its own,
			// so the frame goes straight back to the pool and nothing the
			// caller decodes — aliases included — can be clobbered by reuse.
			m.body.Reset(append([]byte(nil), m.body.RestRef()...))
		}
		bufpool.Put(raw)
		if err != nil || m.mtype != msgReply {
			continue // garbage or a stray call on a client connection
		}
		c.mu.Lock()
		pc, ok := c.pending[m.xid]
		if ok && m.acceptStat == TryLater && pc.retryable && !pc.done {
			// The server shed this request under load. Treat it exactly like
			// a lost reply: leave the call pending so the armed backoff timer
			// retransmits the same XID — no tight retry loop, and the
			// operation still completes (or times out) rather than failing.
			pc.shed++
			c.mu.Unlock()
			c.metShedRetries.Inc()
			continue
		}
		// A reply with no pending call is a duplicate (retransmitted XID
		// already completed) or very late; it is simply dropped.
		var w *vclock.Waiter
		if ok {
			delete(c.pending, m.xid)
			pc.body = m.body
			pc.stat = m.acceptStat
			pc.done = true
			w = pc.w // read under the lock: retransmission swaps waiters
		}
		c.mu.Unlock()
		if w != nil {
			w.Wake()
		}
	}
}

func (c *Client) failAll() {
	c.mu.Lock()
	c.closed = true
	ws := make([]*vclock.Waiter, 0, len(c.pending))
	for xid, pc := range c.pending {
		pc.err = ErrClosed
		pc.done = true
		ws = append(ws, pc.w)
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}
