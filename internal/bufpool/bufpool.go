// Package bufpool provides size-classed byte-slice pools and a pooled XDR
// encoder for the block/RPC hot path.
//
// Ownership rules (see DESIGN.md "Hot-path memory & coalescing"):
//
//   - Get(n) returns a slice of length n whose contents are arbitrary — the
//     caller must overwrite every byte it reads back.
//   - Put(b) recycles a slice. Only the goroutine that owns the buffer may
//     Put it, exactly once, after which no alias of it may be touched.
//   - Every received frame is Put by its receiver: the RPC server once the
//     request is terminal, the RPC client once it has copied the reply body
//     into a slice the caller owns.
//   - Buffers that become cache-resident (proxy/kern block caches) are never
//     Put — losing a buffer to the GC is always safe; double-recycling never is.
//
// Pools can be disabled (SetEnabled(false)) so benchmarks can measure the
// unpooled baseline; Get then allocates fresh and Put drops.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/xdr"
)

// Size classes are powers of two from minShift to maxShift. 1<<20 covers
// nfs3.MaxIOSize-sized coalesced WRITE payloads; larger requests fall through
// to plain allocation.
const (
	minShift = 6  // 64 B
	maxShift = 21 // 2 MiB: a MaxIOSize payload plus RPC framing still pools
)

var classes [maxShift - minShift + 1]sync.Pool

var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns pooling on or off globally. Off, Get allocates fresh and
// Put discards; used by benchmarks to measure the unpooled baseline.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether pooling is active.
func Enabled() bool { return enabled.Load() }

func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c > maxShift-minShift {
		return -1
	}
	return c
}

// outstanding tracks class-eligible buffers handed out by Get and not yet
// returned by Put — the leak detector for the ownership rules above. Buffers
// that legitimately become cache-resident keep the count up; a steady-state
// loop that does not grow a cache must leave it unchanged (the hot-path bench
// and the sunrpc loopback test assert exactly that).
var outstanding atomic.Int64

// Outstanding reports the number of pool-owned buffers currently checked
// out: Gets minus Puts, counting only class-eligible buffers while pooling
// is enabled.
func Outstanding() int64 { return outstanding.Load() }

// Get returns a byte slice of length n with arbitrary contents. Capacity is
// the containing power-of-two size class, so a pooled buffer can be re-sliced
// up to cap(b) without reallocating.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative size")
	}
	c := classFor(n)
	if c < 0 || !enabled.Load() {
		return make([]byte, n)
	}
	outstanding.Add(1)
	if v := classes[c].Get(); v != nil {
		w := v.(*poolBuf)
		b := w.b[:n]
		w.b = nil
		wrapPool.Put(w)
		return b
	}
	return make([]byte, n, 1<<(uint(c)+minShift))
}

// poolBuf wraps the slice so sync.Pool stores a pointer-shaped value (avoids
// an allocation per Put, per staticcheck SA6002).
type poolBuf struct{ b []byte }

var wrapPool = sync.Pool{New: func() any { return new(poolBuf) }}

// Put recycles b. Slices whose capacity is not an exact size class (grown by
// append, sub-sliced mid-buffer, or larger than the biggest class) are dropped
// to the GC — that is always safe.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c&(c-1) != 0 || !enabled.Load() {
		return
	}
	cls := bits.Len(uint(c)) - 1 - minShift
	if cls < 0 || cls > maxShift-minShift {
		return
	}
	outstanding.Add(-1)
	w := wrapPool.Get().(*poolBuf)
	w.b = b[:0:c]
	classes[cls].Put(w)
}

// Pooled XDR encoders for reply/call marshalling. The encoder keeps its grown
// scratch buffer across uses (Encoder.Reset), so a steady-state server encodes
// replies with zero allocations.
var encPool = sync.Pool{New: func() any { return xdr.NewEncoder() }}

// GetEncoder returns an empty encoder, reusing grown scratch space when
// available.
func GetEncoder() *xdr.Encoder {
	if !enabled.Load() {
		return xdr.NewEncoder()
	}
	e := encPool.Get().(*xdr.Encoder)
	e.Reset()
	return e
}

// PutEncoder recycles an encoder. The caller must not retain e.Bytes() —
// copy anything that outlives the encoder (the DRC does exactly this for the
// replies it keeps).
func PutEncoder(e *xdr.Encoder) {
	if e == nil || !enabled.Load() {
		return
	}
	encPool.Put(e)
}
