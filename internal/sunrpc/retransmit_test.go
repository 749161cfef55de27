package sunrpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// faultyConn wraps a transport.Conn with deterministic, countable faults, so
// replay tests can lose or duplicate exactly the message they mean to instead
// of relying on probabilistic link faults.
type faultyConn struct {
	transport.Conn
	mu        sync.Mutex
	dropSends int // swallow the next N outbound messages
	dupSends  int // send the next N outbound messages twice
	dropRecvs int // swallow the next N inbound messages
}

func (f *faultyConn) Send(b []byte) error {
	f.mu.Lock()
	if f.dropSends > 0 {
		f.dropSends--
		f.mu.Unlock()
		return nil // lost on the wire; the sender cannot tell
	}
	dup := f.dupSends > 0
	if dup {
		f.dupSends--
	}
	f.mu.Unlock()
	if err := f.Conn.Send(b); err != nil {
		return err
	}
	if dup {
		return f.Conn.Send(b)
	}
	return nil
}

func (f *faultyConn) Recv() ([]byte, error) {
	for {
		b, err := f.Conn.Recv()
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		drop := f.dropRecvs > 0
		if drop {
			f.dropRecvs--
		}
		f.mu.Unlock()
		if !drop {
			return b, nil
		}
	}
}

// Echo procedures the replay handler marks Idempotent; the slow one holds
// the call in progress for slowEchoDelay before replying.
const (
	procEchoIdempotent     = 10
	procSlowEchoIdempotent = 11
	slowEchoDelay          = 200 * time.Millisecond
)

// replaySim builds a server and client over a 10ms-RTT link with the client's
// traffic routed through a faultyConn, a counting echo handler, observability
// on both ends, and a fast deterministic retransmission policy (50ms initial,
// no jitter). procEcho is an ordinary (replayed) call; procEchoIdempotent and
// procSlowEchoIdempotent are echoes the handler marks Idempotent.
func replaySim(t *testing.T) (*vclock.Clock, *obs.Obs, *Client, *faultyConn, *int, func()) {
	t.Helper()
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	o := obs.New(clk.Now, 256)
	srv := NewServer(clk)
	srv.SetObs(o.Node("server"), nil)

	execs := new(int)
	var execMu sync.Mutex
	srv.Register(testProg, testVers, func(call *Call) AcceptStat {
		switch call.Proc {
		case procEcho:
		case procEchoIdempotent:
			call.Idempotent = true
		case procSlowEchoIdempotent:
			call.Idempotent = true
			clk.Sleep(slowEchoDelay)
		default:
			return ProcUnavail
		}
		execMu.Lock()
		*execs++
		execMu.Unlock()
		b, err := call.Args.Opaque(0)
		if err != nil {
			return GarbageArgs
		}
		call.Reply.Opaque(b)
		return Success
	})

	var cli *Client
	var fc *faultyConn
	setup := make(chan struct{})
	clk.Go("setup", func() {
		defer close(setup)
		l, err := n.Host("server").Listen(":111")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv.Serve(l)
		conn, err := n.Host("client").Dial("server:111")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		fc = &faultyConn{Conn: conn}
		cli = NewClient(clk, fc, NoneCred())
		cli.SetObs(o.Node("client"), nil)
		cli.SetRetransmit(RetransmitPolicy{Initial: 50 * time.Millisecond, Max: 400 * time.Millisecond})
	})
	<-setup
	if cli == nil {
		t.Fatal("setup failed")
	}
	return clk, o, cli, fc, execs, func() {
		cli.Close()
		srv.Close()
		clk.Stop()
	}
}

func counterSum(o *obs.Obs, fam string) int64 {
	return o.Registry().Snapshot().SumCounters(fam)
}

// TestReplayExactlyOnce is the heart of the at-least-once story: whichever
// single message the link loses or duplicates, the handler runs exactly once
// and the caller still gets the correct reply — retransmission supplies
// at-least-once delivery, the server's duplicate-request cache trims it back
// to exactly-once effects.
func TestReplayExactlyOnce(t *testing.T) {
	cases := []struct {
		name        string
		inject      func(*faultyConn)
		wantRetrans int64 // client retransmissions
		wantReplays int64 // DRC hits + DRC busy drops at the server
	}{
		{
			name:        "drop-first-request",
			inject:      func(f *faultyConn) { f.dropSends = 1 },
			wantRetrans: 1,
			wantReplays: 0, // server never saw the lost copy
		},
		{
			name:        "drop-reply",
			inject:      func(f *faultyConn) { f.dropRecvs = 1 },
			wantRetrans: 1,
			wantReplays: 1, // retransmission answered from the cache
		},
		{
			name:        "duplicate-request",
			inject:      func(f *faultyConn) { f.dupSends = 1 },
			wantRetrans: 0,
			wantReplays: 1, // the extra copy is absorbed by the cache
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk, o, cli, fc, execs, cleanup := replaySim(t)
			defer cleanup()
			inSim(t, clk, func() {
				baseline := clk.Diag().Timers
				tc.inject(fc)
				args := xdr.NewEncoder()
				args.Opaque([]byte("once"))
				reply, err := cli.CallTimeout(testProg, testVers, procEcho, args.Bytes(), 2*time.Second)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if b, err := reply.Opaque(0); err != nil || string(b) != "once" {
					t.Errorf("echo = %q, %v", b, err)
				}
				clk.Sleep(time.Second) // let stragglers (late dup, replayed reply) drain
				if *execs != 1 {
					t.Errorf("handler executed %d times, want exactly 1", *execs)
				}
				if got := counterSum(o, "gvfs_rpc_retransmits_total"); got != tc.wantRetrans {
					t.Errorf("retransmits = %d, want %d", got, tc.wantRetrans)
				}
				hits := counterSum(o, "gvfs_rpc_drc_hits_total")
				busy := counterSum(o, "gvfs_rpc_drc_busy_total")
				if hits+busy != tc.wantReplays {
					t.Errorf("DRC hits=%d busy=%d, want %d total replayed/absorbed", hits, busy, tc.wantReplays)
				}
				if d := clk.Diag().Timers; d != baseline {
					t.Errorf("%d timers outstanding after call, want %d", d, baseline)
				}
			})
		})
	}
}

// TestRetransmitSpanDetail checks the call span advertises how many
// retransmissions the call needed and how long the loss stalled it, so
// lossy-link traces are self-explaining and attributable.
func TestRetransmitSpanDetail(t *testing.T) {
	clk, o, cli, fc, _, cleanup := replaySim(t)
	defer cleanup()
	inSim(t, clk, func() {
		fc.dropSends = 1
		args := xdr.NewEncoder()
		args.Opaque([]byte("x"))
		if _, err := cli.CallTimeout(testProg, testVers, procEcho, args.Bytes(), 2*time.Second); err != nil {
			t.Errorf("call: %v", err)
			return
		}
		found := false
		for _, sp := range o.Spans() {
			if strings.HasPrefix(sp.Op, "call ") && strings.HasPrefix(sp.Detail, "retransmit=1 stall=") {
				if _, stall, _ := parseSpanDetail(sp.Detail); stall <= 0 {
					t.Errorf("span %q carries no positive stall", sp.Detail)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("no call span with Detail retransmit=1 stall=... in:\n%s", obs.FormatSpans(o.Spans()))
		}
	})
}

// parseSpanDetail extracts queued= and stall= durations from a span detail.
func parseSpanDetail(detail string) (queued, stall time.Duration, ok bool) {
	for _, f := range strings.Fields(detail) {
		if strings.HasPrefix(f, "queued=") {
			if d, err := time.ParseDuration(f[len("queued="):]); err == nil {
				queued, ok = d, true
			}
		}
		if strings.HasPrefix(f, "stall=") {
			if d, err := time.ParseDuration(f[len("stall="):]); err == nil {
				stall, ok = d, true
			}
		}
	}
	return queued, stall, ok
}

// TestRetransmitBackoffSchedule verifies the exponential schedule: with the
// reply path cut, attempts go out at Initial, 2*Initial, ... capped at Max,
// and the call still honors its overall deadline exactly.
func TestRetransmitBackoffSchedule(t *testing.T) {
	clk := vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: 10 * time.Millisecond})
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))
	inSim(t, clk, func() {
		l, _ := n.Host("server").Listen(":111")
		srv.Serve(l)
		conn, _ := n.Host("client").Dial("server:111")
		cli := NewClient(clk, conn, NoneCred())
		cli.SetRetransmit(RetransmitPolicy{Initial: 100 * time.Millisecond, Max: 400 * time.Millisecond})
		n.Partition("client", "server")
		start := clk.Now()
		_, err := cli.CallTimeout(testProg, testVers, procEcho, nil, 2*time.Second)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got := clk.Now() - start; got != 2*time.Second {
			t.Errorf("timed out after %v, want exactly 2s", got)
		}
		cli.Close()
		srv.Close()
	})
	clk.Stop()
}

// TestRetransmitPerByteStretch pins the size-aware initial timeout: on a
// bandwidth-limited link a large frame's transfer time alone exceeds a fixed
// Initial, so without PerByte the client retransmits a copy that is still in
// flight; with PerByte the first copy is given its transfer time and exactly
// one request crosses the link.
func TestRetransmitPerByteStretch(t *testing.T) {
	const frame = 256 * 1024 // ~0.5s of transfer at 4 Mbit/s
	cases := []struct {
		name    string
		perByte time.Duration
		wantOne bool
	}{
		{"fixed-timeout-retransmits-midflight", 0, false},
		// The echo handler sends the payload back, so the round trip pays
		// the transfer twice; 5 us/byte covers both directions.
		{"per-byte-stretch-sends-once", 5 * time.Microsecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			n := simnet.New(clk, simnet.Params{RTT: 40 * time.Millisecond, Bandwidth: 4_000_000 / 8})
			srv := NewServer(clk)
			srv.Register(testProg, testVers, testDispatch(clk))
			inSim(t, clk, func() {
				l, _ := n.Host("server").Listen(":111")
				srv.Serve(l)
				conn, _ := n.Host("client").Dial("server:111")
				cli := NewClient(clk, conn, NoneCred())
				cli.SetRetransmit(RetransmitPolicy{Initial: 100 * time.Millisecond, PerByte: tc.perByte})
				args := xdr.NewEncoder()
				args.Opaque(make([]byte, frame))
				if _, err := cli.CallTimeout(testProg, testVers, procEcho, args.Bytes(), 30*time.Second); err != nil {
					t.Fatalf("call: %v", err)
				}
				sent := n.LinkStats("client", "server").Messages
				if tc.wantOne && sent != 1 {
					t.Errorf("client sent %d copies, want 1 (timeout should cover the transfer time)", sent)
				}
				if !tc.wantOne && sent < 2 {
					t.Errorf("client sent %d copies, want >=2 (fixed timeout fires mid-transfer)", sent)
				}
				cli.Close()
				srv.Close()
			})
			clk.Stop()
		})
	}
}

// TestXIDWrapSkipsPending is the regression test for the XID-collision bug:
// after the 32-bit counter wraps, allocation must skip 0 and any XID that is
// still pending, or a reply to the old call would complete the new one.
func TestXIDWrapSkipsPending(t *testing.T) {
	clk, _, cli, cleanup := simPair(t)
	defer cleanup()
	inSim(t, clk, func() {
		stuck1 := &pendingCall{w: clk.NewWaiter()}
		stuck2 := &pendingCall{w: clk.NewWaiter()}
		cli.mu.Lock()
		cli.xid = ^uint32(0) // next increment wraps to 0
		cli.pending[1] = stuck1
		cli.pending[2] = stuck2
		cli.mu.Unlock()

		args := xdr.NewEncoder()
		args.Opaque([]byte("wrap"))
		reply, err := cli.Call(testProg, testVers, procEcho, args.Bytes())
		if err != nil {
			t.Errorf("call after wrap: %v", err)
			return
		}
		if b, _ := reply.Opaque(0); string(b) != "wrap" {
			t.Errorf("echo = %q", b)
		}

		cli.mu.Lock()
		defer cli.mu.Unlock()
		if cli.xid != 3 {
			t.Errorf("allocated xid %d, want 3 (skipping 0 and pending 1, 2)", cli.xid)
		}
		if cli.pending[1] != stuck1 || cli.pending[2] != stuck2 {
			t.Error("pre-existing pending entries were disturbed")
		}
		if stuck1.done || stuck2.done {
			t.Error("the new call's reply completed an old pending call")
		}
	})
}

// TestNoStrayTimersAfterTimedCalls is the regression test for the timer leak:
// every timed call arms at least one virtual timer, and Stop must physically
// remove it from the clock's heap — otherwise a workload of fast successful
// RPCs accumulates dead entries far faster than virtual time retires them.
func TestNoStrayTimersAfterTimedCalls(t *testing.T) {
	for _, mode := range []string{"single-send", "retransmit"} {
		t.Run(mode, func(t *testing.T) {
			clk, _, cli, cleanup := simPair(t)
			defer cleanup()
			inSim(t, clk, func() {
				if mode == "retransmit" {
					cli.SetRetransmit(RetransmitPolicy{Initial: 5 * time.Second})
				}
				baseline := clk.Diag().Timers
				for i := 0; i < 50; i++ {
					args := xdr.NewEncoder()
					args.Opaque([]byte(fmt.Sprintf("m%d", i)))
					// Timeout far beyond the 10ms RTT: the timer must be
					// reclaimed on success, not when time reaches it.
					if _, err := cli.CallTimeout(testProg, testVers, procEcho, args.Bytes(), time.Hour); err != nil {
						t.Errorf("call %d: %v", i, err)
						return
					}
				}
				if d := clk.Diag().Timers; d != baseline {
					t.Errorf("%d timers outstanding after 50 successful calls, want %d", d, baseline)
				}
			})
		})
	}
}

// TestDRCBounded fills a connection's duplicate-request cache past its bound
// and checks old completed entries are evicted (a retransmission of an evicted
// XID re-executes — the classic, accepted NFS DRC limitation) while the cache
// never grows past its configured size.
func TestDRCBounded(t *testing.T) {
	d := newDRC(4)
	for xid := uint32(1); xid <= 10; xid++ {
		d.begin(xid)
		d.complete(xid, []byte{byte(xid)})
	}
	d.mu.Lock()
	n := len(d.entries)
	d.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", n)
	}
	if e := d.lookup(1); e != nil {
		t.Error("oldest entry not evicted")
	}
	if e := d.lookup(10); e == nil || !e.done || e.reply[0] != 10 {
		t.Error("newest entry missing or corrupted")
	}
	// In-progress entries survive eviction pressure while any done entry
	// remains: evicting them would let a pending duplicate re-execute.
	d2 := newDRC(2)
	d2.begin(100) // stays in progress
	d2.begin(101)
	d2.complete(101, nil)
	d2.begin(102) // evicts 101 (done), not 100 (in progress)
	if d2.lookup(100) == nil {
		t.Error("in-progress entry evicted while a done entry was available")
	}
	if d2.lookup(101) != nil {
		t.Error("done entry should have been the eviction victim")
	}
}
