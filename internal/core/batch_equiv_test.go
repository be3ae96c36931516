package core

import (
	"testing"

	"linkpad/internal/netem"
	"linkpad/internal/traffic"
)

// TestBatchedChainMatchesPull is the cross-layer determinism property
// test of the batched event core: for every payload model × timer policy
// × network path × impairment combination, the full observation chain
// (gateway → hops → impairments → tap → differencing) must produce the
// bit-identical PIAT stream whether it is pulled one packet at a time or
// a slab at a time through NextBatch. This is the contract that lets the
// protocol builders switch layers to batching incrementally without
// changing any published number.
func TestBatchedChainMatchesPull(t *testing.T) {
	base := func() Config {
		cfg := DefaultLabConfig()
		cfg.Seed = 99
		return cfg
	}
	diurnalHop := HopSpec{
		CapacityBps: 100e6,
		PacketBytes: 1500,
		Util:        traffic.Diurnal{Trough: 0.2, Peak: 0.7, TroughHour: 3},
		PropDelay:   2e-3,
	}
	constHop := HopSpec{
		CapacityBps: 100e6,
		PacketBytes: 1500,
		Util:        traffic.Constant(0.4),
		PropDelay:   1e-3,
	}
	cases := map[string]func(cfg *Config){
		"cit-direct": func(cfg *Config) {},
		"cit-cbr":    func(cfg *Config) { cfg.Payload = PayloadCBR },
		"cit-onoff":  func(cfg *Config) { cfg.Payload = PayloadOnOff },
		"vit-direct": func(cfg *Config) { cfg.SigmaT = 3e-3 },
		"adaptive-direct": func(cfg *Config) {
			cfg.Adaptive = &AdaptiveSpec{IdleFactor: 2, IdleAfter: 3}
		},
		"mix-direct": func(cfg *Config) { cfg.Mix = &MixSpec{K: 8} },
		"cit-hops-diurnal": func(cfg *Config) {
			cfg.Hops = []HopSpec{diurnalHop, constHop}
			cfg.StartHour = 9
		},
		"cit-hops-exact": func(cfg *Config) {
			cfg.Hops = []HopSpec{constHop}
			cfg.ExactNetwork = true
		},
		"vit-hops-impaired": func(cfg *Config) {
			cfg.SigmaT = 3e-3
			cfg.Hops = []HopSpec{diurnalHop}
			cfg.PathImpair = &netem.Impairment{
				LossProb: 0.05, DupProb: 0.08,
				ReorderProb: 0.05, ReorderDepth: 3,
				GE: &netem.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.5},
			}
		},
		"cit-tap-imperfect": func(cfg *Config) {
			cfg.TapResolution = 1e-5
			cfg.TapImpair = &netem.Impairment{LossProb: 0.06, DupProb: 0.1}
		},
		"mix-hops-tap": func(cfg *Config) {
			cfg.Mix = &MixSpec{K: 4}
			cfg.Hops = []HopSpec{diurnalHop}
			cfg.TapImpair = &netem.Impairment{LossProb: 0.03}
		},
	}
	const total = 3000
	chunks := []int{1, 7, 250, 1024}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base()
			mutate(&cfg)
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for class := range cfg.Rates {
				pull, err := sys.PIATSource(class, 7)
				if err != nil {
					t.Fatal(err)
				}
				batchSrc, err := sys.PIATSource(class, 7)
				if err != nil {
					t.Fatal(err)
				}
				batch, ok := batchSrc.(interface{ NextBatch(dst []float64) })
				if !ok {
					t.Fatalf("PIAT source %T does not batch", batchSrc)
				}
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
						t.Fatalf("class %d PIAT %d: batch %v != pull %v", class, i, got[i], want[i])
					}
				}
			}
		})
	}
}
