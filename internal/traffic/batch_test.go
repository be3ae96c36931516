package traffic

import (
	"math"
	"testing"

	"linkpad/internal/xrand"
)

// batchCases returns one validated Model template of each kind, the
// zero Model included. Each test starts its own copies, so the
// pull-driven and batched instances draw from identically seeded
// streams.
func batchCases(t testing.TB) map[string]Model {
	t.Helper()
	must := func(m Model, err error) Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]Model{
		"poisson":    must(PoissonModel(3.2)),
		"cbr":        must(CBRModel(5, 0)),
		"cbr-jitter": must(CBRModel(5, 0.02)),
		"onoff":      must(OnOffModel(8, 0.5, 1.5)),
		"train":      must(TrainModel(4, 3, 0.01)),
		"none":       {},
	}
}

// startOn returns a copy of the template m started on stream seed.
func startOn(m Model, seed uint64) *Model {
	m.Start(xrand.NewStream(seed))
	return &m
}

// TestNextBatchMatchesNext checks the batched-core determinism contract
// at the source layer: for every kind, NextBatch(dst) produces the
// bit-identical gap sequence as len(dst) Next calls, across awkward
// chunk sizes.
func TestNextBatchMatchesNext(t *testing.T) {
	const total = 5000
	chunks := []int{1, 3, 7, 64, 1021, 4096}
	for name, tmpl := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 99} {
				pull := startOn(tmpl, seed)
				batch := startOn(tmpl, seed)
				want := make([]float64, total)
				for i := range want {
					want[i] = pull.Next()
				}
				got := make([]float64, 0, total)
				for ci := 0; len(got) < total; ci++ {
					k := min(chunks[ci%len(chunks)], total-len(got))
					buf := make([]float64, k)
					batch.NextBatch(buf)
					got = append(got, buf...)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d gap %d: batch %v != pull %v", seed, i, got[i], want[i])
					}
				}
				// Both left their streams at the same point.
				if pull.rng != batch.rng {
					t.Fatalf("seed %d: batch and pull streams diverged", seed)
				}
			}
		})
	}
}

// TestNextBatchAllocFree pins every kind at zero allocations per slab in
// steady state.
func TestNextBatchAllocFree(t *testing.T) {
	buf := make([]float64, 4096)
	for name, tmpl := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			src := startOn(tmpl, 1)
			src.NextBatch(buf)
			if n := testing.AllocsPerRun(10, func() { src.NextBatch(buf) }); n != 0 {
				t.Fatalf("NextBatch allocates %v times per slab; want 0", n)
			}
		})
	}
}

// BenchmarkSourceSlab measures gap generation for each kind in both
// traversal modes, one gap per iteration, so pull vs batch ns/op compare
// directly.
func BenchmarkSourceSlab(b *testing.B) {
	for name, tmpl := range batchCases(b) {
		b.Run(name, func(b *testing.B) {
			b.Run("pull", func(b *testing.B) {
				src := startOn(tmpl, 1)
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += src.Next()
				}
				_ = sink
			})
			b.Run("batch", func(b *testing.B) {
				src := startOn(tmpl, 1)
				buf := make([]float64, 4096)
				b.ReportAllocs()
				for i := 0; i < b.N; i += len(buf) {
					src.NextBatch(buf)
				}
			})
		})
	}
}
