package graph_test

import (
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// BenchmarkValidate times the exact validator on the ingest benchmark's
// FE3D-125k mesh and on a 100k-leaf star, the hub case where a per-entry
// reverse-edge probe is quadratic.
func BenchmarkValidate(b *testing.B) {
	star := graph.NewBuilder(100001)
	for v := 1; v <= 100000; v++ {
		star.AddEdge(0, v)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"FE3D-125k", matgen.FE3DTetra(50, 50, 50, 3)},
		{"star-100k", star.MustBuild()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.g.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
