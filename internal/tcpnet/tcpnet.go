// Package tcpnet implements the transport abstraction over real TCP with
// 4-byte big-endian length-prefix framing. It backs the standalone daemons
// (cmd/gvfs-*) and examples so the same protocol stack that runs in the
// simulator also runs across real networks.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// MaxMessage bounds a single framed message (guards against corrupt length
// prefixes). NFS READ/WRITE payloads in this repository are far smaller.
const MaxMessage = 16 << 20

// Net implements transport.Network over the operating system's TCP stack.
type Net struct{}

var _ transport.Network = Net{}

// Dial connects to a TCP listener at addr.
func (Net) Dial(addr string) (transport.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", transport.ErrUnreachable, err)
	}
	return newConn(nc), nil
}

// Listen binds a TCP listener at addr ("host:port"; port 0 picks a free one).
func (Net) Listen(addr string) (transport.Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen %s: %w", addr, err)
	}
	return &listener{nl: nl}, nil
}

type listener struct {
	nl net.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, transport.ErrClosed
		}
		return nil, err
	}
	return newConn(nc), nil
}

func (l *listener) Close() error { return l.nl.Close() }
func (l *listener) Addr() string { return l.nl.Addr().String() }

// readBufSize is the per-connection receive buffer. It holds a record mark
// plus a small body (and often the next frame's mark), so small frames cost
// one read(2); bodies at least this large bypass it (see Recv).
const readBufSize = 4 << 10

type conn struct {
	nc net.Conn

	// sendMu serialises frames on the wire and guards the reused record
	// mark and writev vector: out is a view of vec, which no longer refers
	// to the message once Send returns.
	sendMu sync.Mutex
	hdr    [4]byte
	vec    [2][]byte
	out    net.Buffers

	recvMu  sync.Mutex
	recvHdr [4]byte
	br      *bufio.Reader
}

var _ transport.Conn = (*conn)(nil)

func newConn(nc net.Conn) *conn {
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize)}
}

// Send writes the record mark and the body with one writev.
func (c *conn) Send(msg []byte) error {
	if len(msg) > MaxMessage {
		return fmt.Errorf("tcpnet: message of %d bytes exceeds limit", len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(msg)))
	c.vec = [2][]byte{c.hdr[:], msg}
	c.out = c.vec[:]
	_, err := c.out.WriteTo(c.nc)
	// WriteTo clears each entry it writes; one it stopped short of on an
	// error would still alias msg.
	c.vec = [2][]byte{}
	if err != nil {
		return mapErr(err)
	}
	return nil
}

// Recv reads one frame through the connection's buffer. The mark and a
// small body usually arrive in one read; a body too large for the buffer is
// read straight into the pooled frame once the buffered bytes are drained,
// so a 32 KiB READ reply is not copied through the buffer.
func (c *conn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if _, err := io.ReadFull(c.br, c.recvHdr[:]); err != nil {
		return nil, mapErr(err)
	}
	n := binary.BigEndian.Uint32(c.recvHdr[:])
	if n > MaxMessage {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	// Frames come from the shared pool; the receiver recycles each one (the
	// RPC server once a request is terminal, the RPC client once it has
	// copied the reply body out).
	buf := bufpool.Get(int(n))
	if _, err := io.ReadFull(c.br, buf); err != nil {
		bufpool.Put(buf)
		return nil, mapErr(err)
	}
	return buf, nil
}

func (c *conn) Close() error       { return c.nc.Close() }
func (c *conn) LocalAddr() string  { return c.nc.LocalAddr().String() }
func (c *conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

func mapErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return transport.ErrClosed
	}
	return err
}
