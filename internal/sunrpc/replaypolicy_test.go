package sunrpc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

// TestReplayPolicyByIdempotence pins which replies the duplicate-request
// cache keeps. The reply to the first transmission is lost, so the client
// retransmits after the server has finished: an unmarked call is answered
// from the cache without re-running its handler, while a call its handler
// marks Idempotent left nothing in the cache and simply runs again.
func TestReplayPolicyByIdempotence(t *testing.T) {
	cases := []struct {
		name      string
		proc      uint32
		wantExecs int
		wantHits  int64
	}{
		{"unmarked-replays", procEcho, 1, 1},
		{"idempotent-re-executes", procEchoIdempotent, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk, o, cli, fc, execs, cleanup := replaySim(t)
			defer cleanup()
			inSim(t, clk, func() {
				fc.mu.Lock()
				fc.dropRecvs = 1
				fc.mu.Unlock()
				reply, err := cli.CallTimeout(testProg, testVers, tc.proc, echoArgs("again"), 2*time.Second)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if b, err := reply.Opaque(0); err != nil || string(b) != "again" {
					t.Errorf("echo = %q, %v", b, err)
				}
				clk.Sleep(time.Second)
				if *execs != tc.wantExecs {
					t.Errorf("handler executed %d times, want %d", *execs, tc.wantExecs)
				}
				if got := counterSum(o, "gvfs_rpc_retransmits_total"); got != 1 {
					t.Errorf("retransmits = %d, want 1", got)
				}
				if got := counterSum(o, "gvfs_rpc_drc_hits_total"); got != tc.wantHits {
					t.Errorf("drc hits = %d, want %d", got, tc.wantHits)
				}
				if got := counterSum(o, "gvfs_rpc_drc_busy_total"); got != 0 {
					t.Errorf("drc busy = %d, want 0", got)
				}
			})
		})
	}
}

// TestIdempotentDuplicateInProgressDropped checks that marking a call
// Idempotent does not let a duplicate run concurrently with the original:
// the DRC entry begun on arrival lives until the reply is sent, so a copy
// arriving while the handler still executes is dropped.
func TestIdempotentDuplicateInProgressDropped(t *testing.T) {
	clk, o, cli, fc, execs, cleanup := replaySim(t)
	defer cleanup()
	inSim(t, clk, func() {
		fc.mu.Lock()
		fc.dupSends = 1
		fc.mu.Unlock()
		// No timeout: the single-send path, so the only duplicate is the
		// link's.
		reply, err := cli.Call(testProg, testVers, procSlowEchoIdempotent, echoArgs("slow"))
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if b, err := reply.Opaque(0); err != nil || string(b) != "slow" {
			t.Errorf("echo = %q, %v", b, err)
		}
		clk.Sleep(time.Second)
		if *execs != 1 {
			t.Errorf("handler executed %d times, want 1", *execs)
		}
		if got := counterSum(o, "gvfs_rpc_drc_busy_total"); got != 1 {
			t.Errorf("drc busy = %d, want 1", got)
		}
		if got := counterSum(o, "gvfs_rpc_drc_hits_total"); got != 0 {
			t.Errorf("drc hits = %d, want 0", got)
		}
	})
}

// TestReplyFramesRecycledOverTCP checks frame ownership on both ends of a
// real connection: every frame either side receives goes back to the pool
// (bufpool.Outstanding returns to where it started), and a reply body the
// caller keeps — decoded as an alias — is not clobbered when later replies of
// the same size class reuse the recycled frames.
func TestReplyFramesRecycledOverTCP(t *testing.T) {
	const (
		n       = 200
		payload = 3000 // every frame lands in the 4 KiB class
	)
	clk := vclock.NewReal()
	srv := NewServer(clk)
	srv.Register(testProg, testVers, testDispatch(clk))
	var tn tcpnet.Net
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Serve(l)
	defer srv.Close()
	conn, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli := NewClient(clk, conn, NoneCred())
	defer cli.Close()

	base := bufpool.Outstanding()
	want := bytes.Repeat([]byte{0xA5}, payload)
	reply, err := cli.Call(testProg, testVers, procEcho, echoArgs(string(want)))
	if err != nil {
		t.Fatalf("first call: %v", err)
	}
	kept, err := reply.OpaqueRef(0)
	if err != nil {
		t.Fatalf("first reply: %v", err)
	}
	for i := 0; i < n; i++ {
		b := bytes.Repeat([]byte{byte(i)}, payload)
		r, err := cli.Call(testProg, testVers, procEcho, echoArgs(string(b)))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got, err := r.Opaque(0); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("call %d: wrong echo (err=%v)", i, err)
		}
	}
	if !bytes.Equal(kept, want) {
		t.Error("the first reply body changed after later replies reused the pool")
	}
	// The server recycles a request frame just after sending its reply, so
	// the last one may still be in flight when the call returns.
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Errorf("%d pool buffers still outstanding after %d calls, want 0", d, n+1)
	}
}
