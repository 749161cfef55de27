package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecoder drives every decoder primitive over arbitrary input. The
// invariants under test: no panic, no allocation sized by a wire-supplied
// length beyond the declared bound, OpaqueRef and RestRef alias (never copy)
// the input, a successful Opaque/OpaqueRef pair agree byte for byte, and
// RestRef returns exactly the unread tail, capped so an append cannot write
// into the frame.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 'a', 'b', 'c', 'd'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 'x', 'y', 'z', 0}) // padded opaque
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxLen = 1 << 16

		d := NewDecoder(data)
		ref, refErr := d.OpaqueRef(maxLen)
		d2 := NewDecoder(data)
		cp, cpErr := d2.Opaque(maxLen)
		if (refErr == nil) != (cpErr == nil) {
			t.Fatalf("OpaqueRef err=%v but Opaque err=%v", refErr, cpErr)
		}
		if refErr == nil {
			if !bytes.Equal(ref, cp) {
				t.Fatal("OpaqueRef and Opaque disagree")
			}
			if len(ref) > maxLen {
				t.Fatalf("OpaqueRef returned %d bytes past its bound", len(ref))
			}
			if d.Remaining() != d2.Remaining() {
				t.Fatalf("offsets diverge: %d vs %d", d.Remaining(), d2.Remaining())
			}
			if len(ref) > 0 && len(data) > 0 {
				// Aliasing: the ref must live inside data, not a copy.
				inside := false
				for i := range data {
					if &data[i] == &ref[0] {
						inside = true
						break
					}
				}
				if !inside {
					t.Fatal("OpaqueRef copied instead of aliasing")
				}
			}
		}

		// RestRef after a leading word: the tail in place, nothing left.
		d = NewDecoder(data)
		_, _ = d.Uint32()
		off := len(data) - d.Remaining()
		rest := d.RestRef()
		if !bytes.Equal(rest, data[off:]) {
			t.Fatal("RestRef is not the unread tail")
		}
		if d.Remaining() != 0 {
			t.Fatalf("RestRef left %d bytes unread", d.Remaining())
		}
		if cap(rest) != len(rest) {
			t.Fatalf("RestRef cap %d exceeds its len %d", cap(rest), len(rest))
		}
		if len(rest) > 0 && &rest[0] != &data[off] {
			t.Fatal("RestRef copied instead of aliasing")
		}
		if len(d.RestRef()) != 0 {
			t.Fatal("a second RestRef returned bytes")
		}

		// The scalar/string decoders must simply never panic and never read
		// past the end.
		d = NewDecoder(data)
		for {
			if _, err := d.Uint32(); err != nil {
				break
			}
		}
		d = NewDecoder(data)
		_, _ = d.Uint64()
		_, _ = d.Bool()
		_, _ = d.String(64)
		_, _ = d.FixedOpaque(8)
		if d.Remaining() > len(data) {
			t.Fatal("Remaining grew past input")
		}
	})
}

// FuzzRoundTrip checks that whatever the decoder accepts, the encoder
// reproduces: decode an opaque+uint32 pair, re-encode, and re-decode to the
// same values.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 'h', 'i', 0, 0, 0, 0, 0, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		op, err := d.Opaque(1 << 16)
		if err != nil {
			return
		}
		v, err := d.Uint32()
		if err != nil {
			return
		}
		e := NewEncoder()
		e.Opaque(op)
		e.Uint32(v)
		rd := NewDecoder(e.Bytes())
		op2, err := rd.Opaque(1 << 16)
		if err != nil {
			t.Fatalf("re-decode opaque: %v", err)
		}
		v2, err := rd.Uint32()
		if err != nil {
			t.Fatalf("re-decode uint32: %v", err)
		}
		if !bytes.Equal(op, op2) || v != v2 {
			t.Fatalf("round trip changed values: %q/%d -> %q/%d", op, v, op2, v2)
		}
		if rd.Remaining() != 0 {
			t.Fatalf("%d trailing bytes after re-decode", rd.Remaining())
		}
	})
}
