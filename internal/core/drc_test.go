package core_test

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/sunrpc"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// TestProxyServerDRCByModel pins which proxy-server replies the
// duplicate-request cache keeps. A call is sent, answered, then sent again
// under the same XID. Under polling a pure read carries no grant and queues
// nothing, so the retransmission re-executes (one more forward, no DRC hit).
// Under delegation a READ reply carries a grant and must replay; a WRITE
// replays under either model.
func TestProxyServerDRCByModel(t *testing.T) {
	cases := []struct {
		name         string
		model        core.Model
		proc         uint32
		wantHits     int64
		wantForwards int64
	}{
		{"polling-read-re-executes", core.ModelPolling, nfs3.ProcRead, 0, 1},
		{"delegation-read-replays", core.ModelDelegation, nfs3.ProcRead, 1, 0},
		{"polling-write-replays", core.ModelPolling, nfs3.ProcWrite, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewReal()
			var tn tcpnet.Net

			fs := memfs.New(clk.Now)
			if _, err := fs.WriteFile("f.bin", []byte("sixteen bytes!!!")); err != nil {
				t.Fatal(err)
			}
			nfsRPC := sunrpc.NewServer(clk)
			nfsserver.New(fs, 1).Register(nfsRPC)
			nfsL, err := tn.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer nfsRPC.Close()
			nfsRPC.Serve(nfsL)

			upConn, err := tn.Dial(nfsL.Addr())
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(clk.Now, 64)
			cfg := core.Config{Model: tc.model, PollPeriod: time.Second, Obs: o}
			ps := core.NewProxyServer(clk, cfg,
				sunrpc.NewClient(clk, upConn, sunrpc.NoneCred()),
				func(addr string) (transport.Conn, error) { return tn.Dial(addr) },
				&core.MemStateStore{})
			psL, err := tn.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Stop()
			ps.Serve(psL)

			// Resolve the file handle through the proxy server.
			mc, err := tn.Dial(psL.Addr())
			if err != nil {
				t.Fatal(err)
			}
			nc := nfscall.New(sunrpc.NewClient(clk, mc, sunrpc.NoneCred()))
			defer nc.Close()
			root, err := nc.Mount("/export")
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			lk, err := nc.Lookup(root, "f.bin")
			if err != nil || lk.Status != nfs3.OK {
				t.Fatalf("lookup: %v (status %v)", err, lk.Status)
			}

			e := xdr.NewEncoder()
			if tc.proc == nfs3.ProcRead {
				args := nfs3.ReadArgs{FH: lk.FH, Count: 16}
				args.Encode(e)
			} else {
				args := nfs3.WriteArgs{FH: lk.FH, Count: 4, Stable: nfs3.FileSync, Data: []byte("new!")}
				args.Encode(e)
			}
			raw, err := tn.Dial(psL.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			rc := newRawCaller(t, raw)

			const xid = 0x5eed
			rc.call(t, xid, tc.proc, e.Bytes())
			hits0 := o.Registry().Snapshot().SumCounters("gvfs_rpc_drc_hits_total")
			fwd0 := ps.Stats().Forwards
			rc.call(t, xid, tc.proc, e.Bytes())
			if d := o.Registry().Snapshot().SumCounters("gvfs_rpc_drc_hits_total") - hits0; d != tc.wantHits {
				t.Errorf("retransmission: drc hits +%d, want +%d", d, tc.wantHits)
			}
			if d := ps.Stats().Forwards - fwd0; d != tc.wantForwards {
				t.Errorf("retransmission: forwards +%d, want +%d", d, tc.wantForwards)
			}
		})
	}
}

// rawCaller sends hand-built ONC RPC calls, so a test controls the XID.
type rawCaller struct {
	conn    transport.Conn
	replies chan []byte
}

// newRawCaller starts the conn's reader, which exits once the conn closes
// or the test ends (a reply to a resend may have no one waiting for it).
func newRawCaller(t *testing.T, conn transport.Conn) *rawCaller {
	rc := &rawCaller{conn: conn, replies: make(chan []byte)}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		defer close(rc.replies)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			select {
			case rc.replies <- m:
			case <-done:
				return
			}
		}
	}()
	return rc
}

// call sends an NFS call under xid and waits for its reply, resending the
// same bytes while none arrives, as a client's retransmission would: an
// idempotent call's DRC entry lives until just after its reply is sent, so
// a copy arriving in that gap is dropped as in progress.
func (rc *rawCaller) call(t *testing.T, xid, proc uint32, args []byte) {
	t.Helper()
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(0) // call
	e.Uint32(2) // RPC version
	e.Uint32(nfs3.Program)
	e.Uint32(nfs3.Version)
	e.Uint32(proc)
	e.Uint32(sunrpc.AuthNone)
	e.Opaque(nil)
	e.Uint32(sunrpc.AuthNone)
	e.Opaque(nil)
	e.FixedOpaque(args)
	for attempt := 0; attempt < 10; attempt++ {
		if err := rc.conn.Send(e.Bytes()); err != nil {
			t.Fatalf("send: %v", err)
		}
		select {
		case m, ok := <-rc.replies:
			if !ok {
				t.Fatal("connection closed")
			}
			if len(m) < 24 || binary.BigEndian.Uint32(m) != xid || binary.BigEndian.Uint32(m[20:]) != uint32(sunrpc.Success) {
				t.Fatalf("unexpected reply %x", m)
			}
			return
		case <-time.After(time.Second):
		}
	}
	t.Fatal("no reply")
}
