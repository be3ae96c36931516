package traffic

import (
	"math"
	"testing"

	"linkpad/internal/xrand"
)

// batchCases builds one of each batching source kind from a seed; the
// factory is called twice per case so the pull-driven and batched
// instances draw from identically-seeded generators.
func batchCases(t *testing.T) map[string]func(seed uint64) BatchSource {
	t.Helper()
	return map[string]func(seed uint64) BatchSource{
		"poisson": func(seed uint64) BatchSource {
			p, err := NewPoisson(3.2, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"cbr": func(seed uint64) BatchSource {
			c, err := NewCBR(5, 0, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"cbr-jitter": func(seed uint64) BatchSource {
			c, err := NewCBR(5, 0.02, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
}

// TestNextBatchMatchesNext checks the batched-core determinism contract
// at the source layer: NextBatch(dst) produces the bit-identical gap
// sequence as len(dst) Next calls, across awkward chunk sizes.
func TestNextBatchMatchesNext(t *testing.T) {
	const total = 5000
	chunks := []int{1, 3, 7, 64, 1021, 4096}
	for name, mk := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 99} {
				pull := mk(seed)
				batch := mk(seed)
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
					if got[i] != want[i] {
						t.Fatalf("seed %d gap %d: batch %v != pull %v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPoissonInfiniteRateBatch checks the one input where the batch
// loop does not inline the exponential: an infinite rate emits zero gaps
// and, as Next does, draws nothing from the generator.
func TestPoissonInfiniteRateBatch(t *testing.T) {
	rng := xrand.New(5)
	p, err := NewPoisson(math.Inf(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	gaps := []float64{1, 2, 3}
	p.NextBatch(gaps)
	if gaps[0] != 0 || gaps[1] != 0 || gaps[2] != 0 || math.Signbit(gaps[0]) {
		t.Fatalf("gaps %v, want +0", gaps)
	}
	if g := p.Next(); g != 0 {
		t.Fatalf("Next gap %v, want 0", g)
	}
	// An untouched twin must draw the generator's next value.
	if got, want := rng.Uint64(), xrand.New(5).Uint64(); got != want {
		t.Fatalf("generator advanced: next draw %#x, twin's %#x", got, want)
	}
}

// TestNextBatchAllocFree pins the batched sources at zero allocations
// per slab in steady state.
func TestNextBatchAllocFree(t *testing.T) {
	buf := make([]float64, 4096)
	for name, mk := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			src := mk(1)
			src.NextBatch(buf)
			if n := testing.AllocsPerRun(10, func() { src.NextBatch(buf) }); n != 0 {
				t.Fatalf("NextBatch allocates %v times per slab; want 0", n)
			}
		})
	}
}

// BenchmarkSourceSlab measures gap generation for each source in both
// traversal modes, one gap per iteration, so pull vs batch ns/op compare
// directly.
func BenchmarkSourceSlab(b *testing.B) {
	cases := map[string]func() BatchSource{
		"poisson": func() BatchSource {
			p, err := NewPoisson(40, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			return p
		},
		"cbr-jitter": func() BatchSource {
			c, err := NewCBR(40, 1e-4, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			return c
		},
	}
	for name, mk := range cases {
		b.Run(name, func(b *testing.B) {
			b.Run("pull", func(b *testing.B) {
				src := mk()
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += src.Next()
				}
				_ = sink
			})
			b.Run("batch", func(b *testing.B) {
				src := mk()
				buf := make([]float64, 4096)
				b.ReportAllocs()
				for i := 0; i < b.N; i += len(buf) {
					src.NextBatch(buf)
				}
			})
		})
	}
}
