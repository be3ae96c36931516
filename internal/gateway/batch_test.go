package gateway

import (
	"testing"

	"linkpad/internal/slab"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// NextPacket advances the gateway by one timer fire and returns the
// departure time of the emitted padded packet and whether it was a dummy:
// the one-packet pull the batched paths are checked against.
func (g *Gateway) NextPacket() (departure float64, dummy bool) {
	var flag [1]uint8
	g.nextSlab(g.one[:], flag[:])
	return g.one[0], flag[0] != 0
}

// mkGateway builds a gateway from a seed; called twice per case so the
// pull-driven and batched instances are identically seeded.
func gatewayCases(t *testing.T) map[string]func(seed uint64) *Gateway {
	t.Helper()
	build := func(seed uint64, mkPolicy func(master *xrand.Rand) TimerPolicy) *Gateway {
		master := xrand.New(seed)
		pol := mkPolicy(master)
		payload, err := traffic.NewPoisson(40, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Policy:  pol,
			Jitter:  DefaultJitter(),
			Payload: payload,
			RNG:     master.Split(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]func(seed uint64) *Gateway{
		"cit": func(seed uint64) *Gateway {
			return build(seed, func(*xrand.Rand) TimerPolicy {
				p, err := NewCIT(0.01)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
		},
		"vit": func(seed uint64) *Gateway {
			return build(seed, func(master *xrand.Rand) TimerPolicy {
				p, err := NewVIT(0.01, 0.003, master.Split())
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
		},
		"adaptive": func(seed uint64) *Gateway {
			return build(seed, func(*xrand.Rand) TimerPolicy {
				p, err := NewAdaptive(0.005, 0.02, 3)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
		},
	}
}

// TestGatewayBatchMatchesPull checks that the gateway's stream does not
// depend on how it is pulled: one packet at a time through NextPacket
// and slabs of awkward sizes through NextSlab give identical departure
// times, dummy flags, and final Stats.
func TestGatewayBatchMatchesPull(t *testing.T) {
	const total = 4000
	chunks := []int{1, 5, 63, 1000, 4096}
	for name, mk := range gatewayCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				pull := mk(seed)
				batch := mk(seed)
				wantT := make([]float64, total)
				wantD := make([]bool, total)
				for i := range wantT {
					wantT[i], wantD[i] = pull.NextPacket()
				}
				s := slab.New(slab.DefaultLen)
				var gotT []float64
				var gotD []bool
				for ci := 0; len(gotT) < total; ci++ {
					k := min(chunks[ci%len(chunks)], total-len(gotT))
					batch.NextSlab(s, k)
					gotT = append(gotT, s.Times...)
					for _, f := range s.Flags {
						gotD = append(gotD, f&slab.FlagDummy != 0)
					}
				}
				for i := range wantT {
					if gotT[i] != wantT[i] || gotD[i] != wantD[i] {
						t.Fatalf("seed %d packet %d: batch (%v, %v) != pull (%v, %v)",
							seed, i, gotT[i], gotD[i], wantT[i], wantD[i])
					}
				}
				if pull.Stats() != batch.Stats() {
					t.Fatalf("seed %d: stats diverged: pull %+v batch %+v", seed, pull.Stats(), batch.Stats())
				}
			}
		})
	}
}

// BenchmarkGatewayCIT measures the gateway hot path — a CIT gateway with
// Poisson payload — in both traversal modes, one packet per iteration.
func BenchmarkGatewayCIT(b *testing.B) {
	mk := func() *Gateway {
		master := xrand.New(1)
		payload, err := traffic.NewPoisson(40, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		pol, err := NewCIT(0.01)
		if err != nil {
			b.Fatal(err)
		}
		g, err := New(Config{Policy: pol, Jitter: DefaultJitter(), Payload: payload, RNG: master.Split()})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Run("pull", func(b *testing.B) {
		g := mk()
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += g.Next()
		}
		_ = sink
	})
	b.Run("batch", func(b *testing.B) {
		g := mk()
		s := slab.New(slab.DefaultLen)
		g.NextSlab(s, slab.DefaultLen) // warm the queue backing array
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += slab.DefaultLen {
			g.NextSlab(s, slab.DefaultLen)
		}
	})
}

// TestGatewayBatchAllocFree pins the gateway at zero allocations in
// steady state (the queue's backing array is warmed by one prior slab):
// per slab, and per one-packet pull through Next and NextPacket, whose
// one-packet cell must not escape to the heap.
func TestGatewayBatchAllocFree(t *testing.T) {
	for name, mk := range gatewayCases(t) {
		t.Run(name, func(t *testing.T) {
			g := mk(1)
			s := slab.New(slab.DefaultLen)
			g.NextSlab(s, slab.DefaultLen)
			if n := testing.AllocsPerRun(10, func() { g.NextSlab(s, slab.DefaultLen) }); n != 0 {
				t.Fatalf("NextSlab allocates %v times per slab; want 0", n)
			}
			if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
				t.Fatalf("Next allocates %v times per packet; want 0", n)
			}
			if n := testing.AllocsPerRun(1000, func() { g.NextPacket() }); n != 0 {
				t.Fatalf("NextPacket allocates %v times per packet; want 0", n)
			}
		})
	}
}
