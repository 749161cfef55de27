package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

func TestSendRecvOverLoopback(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
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
			if err := c.Send(msg); err != nil {
				done <- err
				return
			}
		}
	}()

	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, payload := range [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
	} {
		if err := c.Send(payload); err != nil {
			t.Fatalf("send %d bytes: %v", len(payload), err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
		}
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv err = %v, want ErrClosed", err)
	}
}

func TestDialRefused(t *testing.T) {
	var n Net
	// Port 1 on loopback is almost certainly closed.
	if _, err := n.Dial("127.0.0.1:1"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go l.Accept()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxMessage+1)); err == nil {
		t.Fatal("oversize Send succeeded")
	}
}

// rawPeer connects a tcpnet conn to a plain net.Conn, so a test can write
// and read the byte stream exactly as it likes on the far side.
func rawPeer(t testing.TB) (transport.Conn, net.Conn) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer nl.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		raw, err := nl.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- raw
	}()
	var n Net
	c, err := n.Dial(nl.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	raw, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	// A framing bug desynchronises the stream and leaves a reader waiting
	// for bytes that never come; closing both ends fails the test instead.
	watchdog := time.AfterFunc(20*time.Second, func() {
		c.Close()
		raw.Close()
	})
	t.Cleanup(func() {
		watchdog.Stop()
		c.Close()
		raw.Close()
	})
	return c, raw
}

// frame is the wire form of one message: a 4-byte big-endian length, then
// the body.
func frame(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func recvAll(t *testing.T, c transport.Conn, want [][]byte) {
	t.Helper()
	for i, w := range want {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: recv: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d: got %d bytes, want %d (or content differs)", i, len(got), len(w))
		}
		bufpool.Put(got)
	}
}

func TestFramesInOneWriteArriveInOrder(t *testing.T) {
	c, raw := rawPeer(t)
	bodies := [][]byte{
		pattern(1, 1), pattern(100, 2), {}, pattern(readBufSize-4, 3),
		pattern(3*readBufSize+5, 4), pattern(20, 5),
	}
	var stream []byte
	for _, b := range bodies {
		stream = append(stream, frame(b)...)
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	recvAll(t, c, bodies)
}

func TestFrameTrickledOneByteAtATime(t *testing.T) {
	c, raw := rawPeer(t)
	bodies := [][]byte{pattern(300, 1), pattern(readBufSize+100, 2)}
	go func() {
		for _, b := range bodies {
			for _, x := range frame(b) {
				if _, err := raw.Write([]byte{x}); err != nil {
					return
				}
			}
		}
	}()
	recvAll(t, c, bodies)
}

func TestFrameLargerThanReadBuffer(t *testing.T) {
	c, raw := rawPeer(t)
	// A large body bypasses the buffer; the small frame behind it must
	// still be parsed from where the large one ended.
	bodies := [][]byte{pattern(32<<10, 1), pattern(1<<20, 2), pattern(10, 3)}
	go func() {
		for _, b := range bodies {
			if _, err := raw.Write(frame(b)); err != nil {
				return
			}
		}
	}()
	recvAll(t, c, bodies)
}

func TestZeroLengthFrame(t *testing.T) {
	c, raw := rawPeer(t)
	if _, err := raw.Write(append(frame(nil), frame([]byte("next"))...)); err != nil {
		t.Fatal(err)
	}
	recvAll(t, c, [][]byte{{}, []byte("next")})
}

func TestRecvRejectsOversizeLengthPrefix(t *testing.T) {
	c, raw := rawPeer(t)
	hdr := binary.BigEndian.AppendUint32(nil, MaxMessage+1)
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if msg, err := c.Recv(); err == nil {
		t.Fatalf("Recv accepted a %d-byte length prefix (got %d bytes)", MaxMessage+1, len(msg))
	}
}

// TestConcurrentSendsNeverInterleave has 8 goroutines share one conn and
// parses the stream on the far side: every frame must be whole (one
// sender's bytes only) and each sender's frames in its own order.
func TestConcurrentSendsNeverInterleave(t *testing.T) {
	const (
		senders = 8
		each    = 100
	)
	c, raw := rawPeer(t)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Sizes up to ~80 KiB make some writevs partial.
				body := bytes.Repeat([]byte{byte(s)}, 8+(i*811)%(80<<10))
				binary.BigEndian.PutUint32(body[:4], uint32(i))
				if err := c.Send(body); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	br := bufio.NewReader(raw)
	next := make([]uint32, senders)
	var hdr [4]byte
	for n := 0; n < senders*each; n++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		s := body[len(body)-1]
		if int(s) >= senders {
			t.Fatalf("frame %d: unknown sender %d", n, s)
		}
		if bytes.Count(body[4:], []byte{s}) != len(body)-4 {
			t.Fatalf("frame %d from sender %d holds another sender's bytes", n, s)
		}
		if seq := binary.BigEndian.Uint32(body[:4]); seq != next[s] {
			t.Fatalf("sender %d: frame %d arrived, want %d", s, seq, next[s])
		}
		next[s]++
	}
	wg.Wait()
}

// echoServer accepts one connection and echoes every frame back, recycling
// each received frame after its echo is sent.
func echoServer(t testing.TB) (addr string, done <-chan error) {
	t.Helper()
	var n Net
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ch := make(chan error, 1)
	go func() {
		defer l.Close()
		c, err := l.Accept()
		if err != nil {
			ch <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				ch <- nil
				return
			}
			err = c.Send(msg)
			bufpool.Put(msg)
			if err != nil {
				ch <- err
				return
			}
		}
	}()
	return l.Addr(), ch
}

func TestRoundTripsLeavePoolBalanced(t *testing.T) {
	const n = 1000
	addr, done := echoServer(t)
	var tn Net
	c, err := tn.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	base := bufpool.Outstanding()
	for i := 0; i < n; i++ {
		want := pattern((i*997)%(40<<10), byte(i))
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
		t.Errorf("%d pool buffers still outstanding after %d round trips, want 0", d, n)
	}
}

// BenchmarkRoundTrip measures one framed message out and its echo back
// over loopback TCP: two Sends and two Recvs per op, the per-hop cost of
// one RPC on the real-TCP chain.
func BenchmarkRoundTrip(b *testing.B) {
	for _, size := range []int{64, 32 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			addr, done := echoServer(b)
			var tn Net
			c, err := tn.Dial(addr)
			if err != nil {
				b.Fatalf("dial: %v", err)
			}
			msg := pattern(size, 1)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg); err != nil {
					b.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil {
					b.Fatal(err)
				}
				bufpool.Put(got)
			}
			b.StopTimer()
			c.Close()
			if err := <-done; err != nil {
				b.Fatalf("server: %v", err)
			}
		})
	}
}
