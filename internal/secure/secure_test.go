package secure

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// pipePair builds a connected plain conn pair over simnet and wraps it.
func pipePair(t *testing.T, key [32]byte) (clk *vclock.Clock, client, server transport.Conn, cleanup func()) {
	t.Helper()
	clk = vclock.NewVirtual()
	n := simnet.New(clk, simnet.Params{RTT: time.Millisecond})
	done := make(chan struct{})
	clk.Go("setup", func() {
		defer close(done)
		l, err := n.Host("s").Listen(":1")
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		accepted := vclock.NewMailbox[transport.Conn](clk)
		clk.GoDaemon("accept", func() {
			c, err := l.Accept()
			if err == nil {
				accepted.Put(c)
			}
		})
		raw, err := n.Host("c").Dial("s:1")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rawSrv, _ := accepted.Get()
		if client, err = Client(raw, key); err != nil {
			t.Errorf("client wrap: %v", err)
		}
		if server, err = Server(rawSrv, key); err != nil {
			t.Errorf("server wrap: %v", err)
		}
	})
	<-done
	if client == nil || server == nil {
		t.Fatal("setup failed")
	}
	return clk, client, server, func() { clk.Stop() }
}

func TestSealedRoundTrip(t *testing.T) {
	key := KeyFromSession("sess-1")
	clk, client, server, cleanup := pipePair(t, key)
	defer cleanup()

	result := make(chan error, 2)
	clk.Go("server", func() {
		msg, err := server.Recv()
		if err != nil {
			result <- err
			return
		}
		if string(msg) != "confidential" {
			t.Errorf("server got %q", msg)
		}
		result <- server.Send(append(msg, '!'))
	})
	clk.Go("client", func() {
		if err := client.Send([]byte("confidential")); err != nil {
			result <- err
			return
		}
		reply, err := client.Recv()
		if err == nil && string(reply) != "confidential!" {
			err = transport.ErrClosed
		}
		result <- err
	})
	for i := 0; i < 2; i++ {
		if err := <-result; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWrongKeyFailsAuthentication(t *testing.T) {
	// A receiver keyed with session B must reject session A's frames.
	keyA := KeyFromSession("sess-A")
	keyB := KeyFromSession("sess-B")
	wire := &queueConn{}
	snd, _ := Client(wire, keyA)
	rcv, _ := Server(wire, keyB)
	snd.Send([]byte("secret"))
	if _, err := rcv.Recv(); err == nil {
		t.Fatal("mismatched keys authenticated")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	key := KeyFromSession("s")
	// Use an in-memory capture conn to inspect the wire bytes.
	cap := &captureConn{}
	c, err := Client(cap, key)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("top-secret "), 10)
	if err := c.Send(payload); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cap.sent, []byte("top-secret")) {
		t.Fatal("plaintext visible on the wire")
	}
	if len(cap.sent) <= len(payload) {
		t.Fatal("no authentication tag appended")
	}
}

func TestReplayRejected(t *testing.T) {
	key := KeyFromSession("s")
	capC := &captureConn{}
	c, _ := Client(capC, key)
	c.Send([]byte("frame-0"))
	frame0 := append([]byte(nil), capC.sent...)

	// Server that receives frame0 twice: the second must fail (nonce
	// counter advanced). Recv opens in place, overwriting the frame it was
	// handed, so each delivery gets its own copy.
	replay := &replayConn{frames: [][]byte{frame0, append([]byte(nil), frame0...)}}
	s, _ := Server(replay, key)
	if _, err := s.Recv(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := s.Recv(); err == nil {
		t.Fatal("replayed frame accepted")
	}
}

// TestSealedFramesRecycledOverTCP checks pool ownership through the sealed
// channel on a real connection: Send recycles its sealed copy, and Recv
// hands the inner transport's pooled frame on to the caller, who recycles
// it. Round trips therefore leave bufpool.Outstanding where it started.
func TestSealedFramesRecycledOverTCP(t *testing.T) {
	const n = 500
	key := KeyFromSession("pool")
	var tn tcpnet.Net
	inner, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l := NewListener(inner, key)
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				done <- nil
				return
			}
			err = c.Send(msg)
			bufpool.Put(msg)
			if err != nil {
				done <- err
				return
			}
		}
	}()

	raw, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := Client(raw, key)
	if err != nil {
		t.Fatal(err)
	}
	base := bufpool.Outstanding()
	for i := 0; i < n; i++ {
		want := bytes.Repeat([]byte{byte(i)}, 100+i*7)
		if err := c.Send(want); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip %d: echo mismatch", i)
		}
		bufpool.Put(got)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Errorf("%d pool buffers still outstanding after %d sealed round trips, want 0", d, n)
	}
}

func TestKeyDerivationDeterministicAndDistinct(t *testing.T) {
	if KeyFromSession("a") != KeyFromSession("a") {
		t.Fatal("derivation not deterministic")
	}
	if KeyFromSession("a") == KeyFromSession("b") {
		t.Fatal("distinct sessions share a key")
	}
}

func TestPropertySealOpenRoundTrip(t *testing.T) {
	key := KeyFromSession("prop")
	f := func(msgs [][]byte) bool {
		wire := &queueConn{}
		snd, _ := Client(wire, key)
		rcv, _ := Server(wire, key)
		for _, m := range msgs {
			if err := snd.Send(m); err != nil {
				return false
			}
			got, err := rcv.Recv()
			if err != nil || !bytes.Equal(got, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- test doubles -----------------------------------------------------------

type captureConn struct{ sent []byte }

func (c *captureConn) Send(m []byte) error   { c.sent = append([]byte(nil), m...); return nil }
func (c *captureConn) Recv() ([]byte, error) { return nil, transport.ErrClosed }
func (c *captureConn) Close() error          { return nil }
func (c *captureConn) LocalAddr() string     { return "cap" }
func (c *captureConn) RemoteAddr() string    { return "cap" }

type replayConn struct{ frames [][]byte }

func (c *replayConn) Send(m []byte) error { return nil }
func (c *replayConn) Recv() ([]byte, error) {
	if len(c.frames) == 0 {
		return nil, transport.ErrClosed
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f, nil
}
func (c *replayConn) Close() error       { return nil }
func (c *replayConn) LocalAddr() string  { return "replay" }
func (c *replayConn) RemoteAddr() string { return "replay" }

// queueConn loops sends back as receives (one direction).
type queueConn struct{ q [][]byte }

func (c *queueConn) Send(m []byte) error { c.q = append(c.q, append([]byte(nil), m...)); return nil }
func (c *queueConn) Recv() ([]byte, error) {
	if len(c.q) == 0 {
		return nil, transport.ErrClosed
	}
	m := c.q[0]
	c.q = c.q[1:]
	return m, nil
}
func (c *queueConn) Close() error       { return nil }
func (c *queueConn) LocalAddr() string  { return "q" }
func (c *queueConn) RemoteAddr() string { return "q" }
