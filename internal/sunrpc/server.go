package sunrpc

import (
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// DispatchFunc handles one procedure call for a registered program. It
// decodes arguments from call.Args, writes results to call.Reply, and
// returns the accept status. Dispatch functions run concurrently (the
// server is multithreaded, as the paper's proxies are).
type DispatchFunc func(call *Call) AcceptStat

type progVers struct{ prog, vers uint32 }

// defaultDRCEntries bounds each connection's duplicate-request cache when no
// explicit size is configured.
const defaultDRCEntries = 512

// Server accepts connections from a listener and dispatches RPC calls to
// registered programs.
type Server struct {
	clk *vclock.Clock

	mu         sync.Mutex
	programs   map[progVers]DispatchFunc
	progs      map[uint32]bool // known program numbers, for ProgMismatch
	ls         []transport.Listener
	conns      map[transport.Conn]bool
	closed     bool
	counts     map[uint64]int64 // prog<<32|proc -> calls served
	drcEntries int
	sched      *sched

	node     *obs.Node
	procName ProcNameFunc

	metDRCHits *obs.Counter
	metDRCBusy *obs.Counter
}

// SetObs attaches a trace node: every dispatched call records a
// "serve <PROC>" span carrying the caller's request ID and any annotations
// the dispatch function left on the Call.
func (s *Server) SetObs(node *obs.Node, procName ProcNameFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.node = node
	s.procName = procName
	if reg := node.Registry(); reg != nil {
		s.metDRCHits = reg.Counter(obs.Label("gvfs_rpc_drc_hits_total", "node", node.Name()))
		s.metDRCBusy = reg.Counter(obs.Label("gvfs_rpc_drc_busy_total", "node", node.Name()))
	}
	if s.sched != nil {
		s.sched.setObs(node)
	}
}

// SetSched installs the bounded scheduling layer (worker pool, per-client
// DRR queues, token-bucket admission — see sched.go). The zero SchedConfig
// restores the legacy unbounded per-request dispatch. Takes effect for
// requests received after the call.
func (s *Server) SetSched(cfg SchedConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !cfg.active() {
		s.sched = nil
		return
	}
	s.sched = newSched(s.clk, s, cfg)
	s.sched.global = newBucket(s.sched.cfg.RateLimit, s.sched.cfg.RateBurst, s.clk.Now())
	if s.node != nil {
		s.sched.setObs(s.node)
	}
}

// SetDRCSize bounds each connection's duplicate-request cache at n entries.
// Zero restores the default; negative disables the cache (every call, even a
// retransmitted duplicate, executes its handler — at-least-once semantics
// with no replay protection). Takes effect for connections accepted after
// the call.
func (s *Server) SetDRCSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 {
		n = defaultDRCEntries
	}
	s.drcEntries = n
}

// NewServer returns an empty server; register programs before Serve. The
// duplicate-request cache is on by default (see SetDRCSize).
func NewServer(clk *vclock.Clock) *Server {
	return &Server{
		clk:        clk,
		programs:   make(map[progVers]DispatchFunc),
		progs:      make(map[uint32]bool),
		conns:      make(map[transport.Conn]bool),
		counts:     make(map[uint64]int64),
		drcEntries: defaultDRCEntries,
	}
}

// Register installs the dispatch function for (prog, vers).
func (s *Server) Register(prog, vers uint32, fn DispatchFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[progVers{prog, vers}] = fn
	s.progs[prog] = true
}

// Serve starts an accept loop on l. It returns immediately; connection and
// request handling run as clock actors. Serve may be called for multiple
// listeners.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	s.ls = append(s.ls, l)
	s.mu.Unlock()
	s.clk.GoDaemon("sunrpc-accept:"+l.Addr(), func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.clk.GoDaemon("sunrpc-conn:"+conn.RemoteAddr(), func() { s.serveConn(conn) })
		}
	})
}

// Counts returns a snapshot of calls served, keyed by prog<<32|proc.
func (s *Server) Counts() map[uint64]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Close stops all listeners and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ls := s.ls
	s.ls = nil
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[transport.Conn]bool)
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// drcEntry tracks one XID on a connection: in progress until the handler
// finishes, then holding the reply bytes for replay.
type drcEntry struct {
	done  bool
	reply []byte
}

// drc is the classic NFS duplicate-request cache, scoped to one connection
// identity. At-least-once clients retransmit under the same XID; the cache
// turns those duplicates into replays of the original reply (or silence
// while the original is still executing) instead of re-executed handlers,
// which is what makes non-idempotent procedures — REMOVE, RENAME, CREATE,
// the GETINV queue drain, callback recalls — safe under message loss. Only
// those replies are kept: a call its dispatch function marks Idempotent holds
// an entry just while it executes (see sendReply).
type drc struct {
	mu      sync.Mutex
	max     int
	entries map[uint32]*drcEntry
	order   []uint32 // begin order, for bounded FIFO eviction
}

func newDRC(max int) *drc {
	return &drc{max: max, entries: make(map[uint32]*drcEntry)}
}

// lookup returns the cached state for xid, or nil for a fresh request.
func (d *drc) lookup(xid uint32) *drcEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entries[xid]
}

// begin records xid as in progress and evicts beyond the bound, preferring
// the oldest completed entry (evicting an in-progress one would let a still
// pending duplicate re-execute, so that is a last resort).
func (d *drc) begin(xid uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[xid] = &drcEntry{}
	d.order = append(d.order, xid)
	for len(d.entries) > d.max && len(d.order) > 0 {
		victim := -1
		for i, x := range d.order {
			if e, ok := d.entries[x]; ok && e.done {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(d.entries, d.order[victim])
		d.order = append(d.order[:victim], d.order[victim+1:]...)
	}
}

// remove forgets xid entirely. The scheduler uses it when it sheds a queued
// request after begin: the shed reply must leave no trace so the client's
// retransmission under the same XID executes the handler (exactly once). The
// server uses it once an idempotent call's reply is sent. The search runs from
// the newest entry, where the XID being removed almost always sits.
func (d *drc) remove(xid uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[xid]; !ok {
		return
	}
	delete(d.entries, xid)
	for i := len(d.order) - 1; i >= 0; i-- {
		if d.order[i] == xid {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// complete stores the reply bytes for later replay.
func (d *drc) complete(xid uint32, reply []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[xid]; ok {
		e.done = true
		e.reply = reply
	}
}

func (s *Server) serveConn(conn transport.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mu.Lock()
	drcSize := s.drcEntries
	s.mu.Unlock()
	var cache *drc
	if drcSize > 0 {
		cache = newDRC(drcSize)
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		m, err := parseMsg(raw)
		if err != nil || m.mtype != msgCall {
			bufpool.Put(raw)
			continue
		}
		// The frame is recycled once the request reaches its terminal state:
		// replayed here, shed, or handled.
		m.raw = raw
		if cache != nil {
			if e := cache.lookup(m.xid); e != nil {
				// Retransmitted XID: replay the cached reply, or stay silent
				// while the original execution is still in flight (the client
				// will retransmit again if the eventual reply is lost).
				if e.done {
					s.metDRCHits.Inc()
					conn.Send(e.reply)
				} else {
					s.metDRCBusy.Inc()
				}
				m.recycleFrame()
				continue
			}
		}
		s.mu.Lock()
		sc := s.sched
		s.mu.Unlock()
		if cache != nil {
			cache.begin(m.xid)
		}
		if sc == nil {
			// Unscheduled: each request is served on its own actor so slow
			// handlers (e.g. a proxy server blocked issuing a callback) do
			// not stall the connection — the multithreading the paper
			// requires to avoid deadlock between NFS RPCs and GVFS
			// callbacks.
			s.clk.Go("sunrpc-req", func() { s.handle(conn, cache, m, nil, 0, false) })
			continue
		}
		// Every scheduling decision — admission, queueing, dispatch — runs
		// in the scheduler's end-of-instant drain, in deterministic arrival
		// order; serveConn only records the arrival. If the drain sheds this
		// request it removes the DRC entry begun above, so the client's
		// retransmission executes it fresh.
		sc.submit(sc.clientKey(m, conn), conn, cache, m, len(raw))
	}
}

// shed answers a request with TryLater instead of executing it, recording
// the decision as a span (Detail "shed=<reason>") and a per-reason
// gvfs_server_shed_total counter. The reply deliberately bypasses the DRC:
// the retransmission must execute, not replay the shed.
func (s *Server) shed(conn transport.Conn, m *parsedMsg, reason string) {
	s.mu.Lock()
	node, procName := s.node, s.procName
	sc := s.sched
	s.mu.Unlock()
	if sc != nil {
		sc.shedCounter(reason).Inc()
	}
	if node != nil {
		now := node.Now()
		node.Record(obs.Span{
			Req:    m.reqID,
			Op:     "serve " + procLabel(procName, m.prog, m.proc),
			Detail: "shed=" + reason,
			Err:    TryLater.String(),
			Start:  now,
			End:    now,
		})
	}
	s.reply(conn, nil, m.xid, TryLater, nil)
	m.recycleFrame()
}

// reply finishes a call: the wire reply is recorded in the connection's
// duplicate-request cache before it is sent, so a retransmission that races
// the reply still replays identical bytes.
func (s *Server) reply(conn transport.Conn, cache *drc, xid uint32, stat AcceptStat, results []byte) {
	raw := marshalReply(xid, stat, results)
	if cache != nil {
		cache.complete(xid, raw)
	}
	conn.Send(raw)
}

// sendReply sends reply bytes that alias a pooled encoder. An idempotent
// call's reply goes out as is and its DRC entry is dropped once it is sent: a
// later retransmission re-executes, which is harmless, so the cache neither
// copies nor holds its bytes. Any other reply is recorded first — as a copy,
// since the encoder is recycled as soon as the caller returns — so a
// retransmission racing the reply still replays identical bytes.
func (s *Server) sendReply(conn transport.Conn, cache *drc, xid uint32, raw []byte, idempotent bool) {
	switch {
	case cache == nil:
		conn.Send(raw)
	case idempotent:
		conn.Send(raw)
		cache.remove(xid)
	default:
		cache.complete(xid, append([]byte(nil), raw...))
		conn.Send(raw)
	}
}

// handle executes one admitted request. yield is the scheduler's slot-park
// hook (nil when unscheduled); queued is the virtual time the request spent
// waiting for a worker slot, recorded as a "queued=" span detail when
// scheduled is true.
func (s *Server) handle(conn transport.Conn, cache *drc, m *parsedMsg, yield func(func()), queued time.Duration, scheduled bool) {
	s.mu.Lock()
	fn, ok := s.programs[progVers{m.prog, m.vers}]
	knownProg := s.progs[m.prog]
	s.counts[uint64(m.prog)<<32|uint64(m.proc)]++
	node, procName := s.node, s.procName
	s.mu.Unlock()

	if !ok {
		stat := ProgUnavail
		if knownProg {
			stat = ProgMismatch
		}
		s.reply(conn, cache, m.xid, stat, nil)
		m.recycleFrame()
		return
	}

	// The reply is encoded once, in place: the header goes into a pooled
	// encoder first and the dispatch function appends its results directly
	// after it, so Success replies need no results-to-message copy and, at
	// steady state, no allocation at all.
	enc := bufpool.GetEncoder()
	beginReply(enc, m.xid)
	call := &Call{
		XID:    m.xid,
		Prog:   m.prog,
		Vers:   m.vers,
		Proc:   m.proc,
		Cred:   m.cred,
		ReqID:  m.reqID,
		Args:   m.body,
		Reply:  enc,
		Traced: node.Tracing(),
		yield:  yield,
	}
	start := node.Now()
	stat := fn(call)
	if stat != Success {
		// Discard whatever the handler half-encoded and patch the stat slot.
		enc.Truncate(replyHeaderLen)
		enc.SetUint32At(replyStatOff, uint32(stat))
	}
	if node.Tracing() {
		sp := obs.Span{
			Req:    call.ReqID,
			Op:     "serve " + procLabel(procName, m.prog, m.proc),
			FH:     call.SpanFH,
			Detail: call.SpanDetail,
			Bytes:  call.SpanBytes,
			Start:  start,
			End:    node.Now(),
		}
		if scheduled {
			q := "queued=" + queued.String()
			if sp.Detail != "" {
				sp.Detail += " " + q
			} else {
				sp.Detail = q
			}
		}
		if stat != Success {
			sp.Err = stat.String()
		}
		node.Record(sp)
	}
	s.sendReply(conn, cache, m.xid, enc.Bytes(), call.Idempotent)
	bufpool.PutEncoder(enc)
	m.recycleFrame()
}
