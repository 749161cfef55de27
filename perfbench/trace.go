package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nfs3"
	"repro/internal/sunrpc"
	"repro/internal/transport"
)

// The traced pass wraps the caller side of each TCP hop of the chain and
// records one span per RPC: from Send of the call to Recv of the reply with
// the same XID, tagged with the request ID the call's AuthTrace verifier
// carries. The kernel-face calls get their IDs from the load generator and
// both proxies forward them, so one request's spans line up across hops.

// Hops of the daemon chain, named by the server each one reaches.
const (
	hopKern = iota // kernel client -> gvfs-proxyc
	hopWAN         // gvfs-proxyc -> gvfs-proxyd
	hopNFSD        // gvfs-proxyd -> gvfs-nfsd
	nHops
)

var hopNames = [nHops]string{"kern", "wan", "nfsd"}

type span struct {
	hop        uint8
	prog, proc uint32
	req        uint64
	start, end int64 // ns since the tracer's base
}

type hopCounters struct {
	msgs, bytes, sendNs atomic.Int64
}

// tracer owns the spans of one run. Recording happens only while on is set.
type tracer struct {
	base time.Time
	on   atomic.Bool
	hops [nHops]hopCounters

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// stopRecording ends the traced phase; a nil tracer ignores it.
func (t *tracer) stopRecording() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap returns conn instrumented as the caller side of hop; a nil tracer
// leaves the connection untouched.
func (t *tracer) wrap(hop int, conn transport.Conn) transport.Conn {
	if t == nil {
		return conn
	}
	return &tracedConn{Conn: conn, t: t, hop: uint8(hop), pending: make(map[uint32]span)}
}

type tracedConn struct {
	transport.Conn
	t   *tracer
	hop uint8

	mu      sync.Mutex
	pending map[uint32]span // by XID; a retransmission keeps the first send
}

func (c *tracedConn) Send(msg []byte) error {
	if !c.t.on.Load() {
		return c.Conn.Send(msg)
	}
	t0 := c.t.now()
	if xid, s, ok := parseCall(msg); ok {
		s.hop, s.start = c.hop, t0
		c.mu.Lock()
		if _, dup := c.pending[xid]; !dup {
			c.pending[xid] = s
		}
		c.mu.Unlock()
	}
	err := c.Conn.Send(msg)
	h := &c.t.hops[c.hop]
	h.sendNs.Add(c.t.now() - t0)
	h.msgs.Add(1)
	h.bytes.Add(int64(len(msg)) + 4) // the tcpnet length prefix
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil || !c.t.on.Load() {
		return msg, err
	}
	end := c.t.now()
	h := &c.t.hops[c.hop]
	h.msgs.Add(1)
	h.bytes.Add(int64(len(msg)) + 4)
	if len(msg) >= 8 && binary.BigEndian.Uint32(msg[4:]) == 1 { // REPLY
		xid := binary.BigEndian.Uint32(msg)
		c.mu.Lock()
		s, ok := c.pending[xid]
		delete(c.pending, xid)
		c.mu.Unlock()
		if ok {
			s.end = end
			c.t.record(s)
		}
	}
	return msg, nil
}

// parseCall extracts the XID, program, procedure and trace request ID of an
// ONC RPC call frame (RFC 5531 layout; the ID rides in an AuthTrace
// verifier).
func parseCall(msg []byte) (xid uint32, s span, ok bool) {
	be := binary.BigEndian
	if len(msg) < 32 || be.Uint32(msg[4:]) != 0 { // CALL
		return 0, s, false
	}
	xid = be.Uint32(msg)
	s.prog, s.proc = be.Uint32(msg[12:]), be.Uint32(msg[20:])
	// Credential: flavor at 24, length at 28, padded body from 32; the
	// verifier follows it.
	verf := 32 + int(pad4(be.Uint32(msg[28:])))
	if verf+16 <= len(msg) && be.Uint32(msg[verf:]) == sunrpc.AuthTrace && be.Uint32(msg[verf+4:]) == 8 {
		s.req = be.Uint64(msg[verf+8:])
	}
	return xid, s, true
}

func pad4(n uint32) uint32 { return (n + 3) &^ 3 }

// addMetrics derives the per-hop and per-proxy metrics from the spans of
// the traced phase. ops is the kernel-face op count of that phase.
func (t *tracer) addMetrics(res *result, ops int64, base string) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	n := float64(ops)

	var durs [nHops][]int64
	below := [nHops]map[uint64]int64{nil, make(map[uint64]int64), make(map[uint64]int64)}
	for _, s := range spans {
		if s.prog != nfs3.Program {
			continue
		}
		d := s.end - s.start
		durs[s.hop] = append(durs[s.hop], d)
		if s.req != 0 && below[s.hop] != nil {
			below[s.hop][s.req] += d
		}
	}
	for h := range nHops {
		name := "tcpnet." + hopNames[h]
		c := &t.hops[h]
		res.add(metric{Name: name + ".msgs_per_op", Unit: "count", Value: float64(c.msgs.Load()) / n, Base: base})
		res.add(metric{Name: name + ".bytes_per_op", Unit: "B", Value: float64(c.bytes.Load()) / n, Base: base})
		res.add(metric{Name: name + ".send_us_per_op", Unit: "us", Value: float64(c.sendNs.Load()) / 1e3 / n, Base: base})
		sorted := durs[h]
		slices.Sort(sorted)
		res.add(metric{Name: name + ".rtt_p50_us", Unit: "us", Value: float64(percentile(sorted, 0.5)) / 1e3, Samples: len(sorted)})
		res.add(metric{Name: name + ".rtt_p99_us", Unit: "us", Value: float64(percentile(sorted, 0.99)) / 1e3, Samples: len(sorted)})
	}

	// Self time: a hop's span minus the time the same request spent on the
	// next hop down. Kernel-hop spans split by op class give the proxy
	// client's; WAN-hop spans give the proxy server's.
	var self [nClasses][]int64
	var proxyd []int64
	for _, s := range spans {
		if s.prog != nfs3.Program || s.req == 0 {
			continue
		}
		d := s.end - s.start
		switch s.hop {
		case hopKern:
			if c, ok := classOf(s.proc); ok {
				self[c] = append(self[c], d-below[hopWAN][s.req])
			}
		case hopWAN:
			proxyd = append(proxyd, d-below[hopNFSD][s.req])
		}
	}
	for c, v := range self {
		if len(v) == 0 {
			continue
		}
		slices.Sort(v)
		res.add(metric{Name: "core.proxyc.self_" + classNames[c] + "_us", Unit: "us", Value: float64(percentile(v, 0.5)) / 1e3, Samples: len(v)})
	}
	slices.Sort(proxyd)
	res.add(metric{Name: "core.proxyd.self_us", Unit: "us", Value: float64(percentile(proxyd, 0.5)) / 1e3, Samples: len(proxyd)})
}

func classOf(proc uint32) (int, bool) {
	switch proc {
	case nfs3.ProcRead:
		return clsRead, true
	case nfs3.ProcWrite:
		return clsWrite, true
	case nfs3.ProcCommit:
		return clsCommit, true
	case nfs3.ProcGetattr, nfs3.ProcLookup, nfs3.ProcAccess:
		return clsMeta, true
	}
	return 0, false
}

// dump writes every span as a tab-separated line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "hop\tproc\treq\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%x\t%d\t%d\n", hopNames[s.hop], core.RPCName(s.prog, s.proc), s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
