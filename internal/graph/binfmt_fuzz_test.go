package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeBinary holds the csrb decoder to the same bar as the text
// readers: arbitrary bytes must produce either a valid graph or an error —
// never a panic, and never an allocation larger than a constant factor of
// the input. Accepted graphs must pass the exact Validate (the
// ground truth the fused single-pass validation approximates) and must
// round-trip through the encoder bit-compatibly.
func FuzzDecodeBinary(f *testing.F) {
	// Valid encodings, with and without a part section.
	seed := func(g *Graph, part []int) {
		var buf bytes.Buffer
		if err := EncodeBinaryPart(&buf, g, part); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	small := b.MustBuild()
	seed(small, nil)
	seed(small, []int{0, 1, 1, 0})
	seed(&Graph{Xadj: []int{0}}, nil)

	// Truncations and corruptions of a valid payload.
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, small); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good[:len(good)-3])
	f.Add(good[:binHeaderSize])
	f.Add(good[:binHeaderSize+4])
	corrupt := append([]byte(nil), good...)
	corrupt[binHeaderSize+9] ^= 0xff // checksum mismatch in xadj
	f.Add(corrupt)

	// Hostile headers: overflowing counts, absurd widths, unknown flags.
	hostile := func(mutate func([]byte)) {
		h := append([]byte(nil), good...)
		mutate(h)
		f.Add(h)
	}
	hostile(func(h []byte) { binary.LittleEndian.PutUint64(h[16:24], ^uint64(0)) })
	hostile(func(h []byte) { binary.LittleEndian.PutUint64(h[24:32], 1<<62) })
	hostile(func(h []byte) { binary.LittleEndian.PutUint32(h[12:16], 0xffffffff) })
	hostile(func(h []byte) { binary.LittleEndian.PutUint32(h[8:12], 2) })
	f.Add([]byte("MLPTCSR1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, part, err := DecodeBinaryPart(data)
		if err != nil {
			return // rejecting is always fine
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails full Validate: %v", verr)
		}
		if part != nil && len(part) != g.NumVertices() {
			t.Fatalf("part length %d for n=%d", len(part), g.NumVertices())
		}
		var out bytes.Buffer
		if err := EncodeBinaryPart(&out, g, part); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		g2, _, err := DecodeBinaryPart(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("fingerprint changed across re-encode")
		}
	})
}
