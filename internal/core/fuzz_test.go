package core

import (
	"context"
	"math"
	"testing"

	"linkpad/internal/active"
	"linkpad/internal/analytic"
	"linkpad/internal/population"
)

// fuzz_test.go: Build-time validation must be total. A spec of any of
// the six kinds assembled from arbitrary field values — NaN rates and
// durations, negative budgets, mix seeds on the wrong kind, out-of-range enum
// codes, duplicate targets, observation budgets past memory — must
// either build or return an error; System.Build never panics. This is
// the fuzz companion of the decode fuzzers (FuzzParseCheckpoint in
// internal/experiment, FuzzParseImpairment in internal/netem): those
// guard checkpoint and profile inputs, this guards spec inputs.

// fuzzKnobs is one fuzz input. The field names are their DisclosureSpec
// meanings, except sigmaMicro, which only the other kinds read, poison
// and churnMilli, which spec documents with how the other five kinds
// read the knobs, and workers, the RunOptions width a seed Build
// accepts runs at.
type fuzzKnobs struct {
	kind, users, recipients, contacts, coverMilli, dummies,
	batch, mixKind, sigmaMicro, poison int
	mixSeed                                                            uint64
	estimator, maxRounds, checkEvery, consecutive, workers, churnMilli int
	targets                                                            []byte
}

// The float knobs of a fuzz input, in the order poison picks them. One
// knob feeds the float fields listed beside it, whichever kinds have
// them.
const (
	floatCover      = iota // CoverRate, Confidence, Amplitude
	floatCoverToPPS        // both CoverToPPS fields
	floatSigmaT            // every hop's SigmaT
	floatDuration          // Duration of the three flow kinds
	floatBinWidth          // EntropyBinWidth
	floatMeanOn            // Churn.MeanOn
	floatMeanOff           // Churn.MeanOff
	numFloatKnobs
)

// spec maps the knobs onto the spec of kind kind mod 6. A positive
// poison replaces float knob (poison−1)/3 (mod numFloatKnobs) by NaN,
// +Inf or −Inf as (poison−1) mod 3 is 0, 1 or 2; it is the only way a
// knob reaches a non-finite value. A non-zero churnMilli, or a poisoned
// churn knob, gives the population churn of churnMilli ms mean periods.
//
//   - 0 AttackSetSpec: batch is the window size, maxRounds/checkEvery
//     the train/eval windows, consecutive the entropy bin width in µs,
//     mixSeed odd for the Gaussian fit, targets the feature codes;
//   - 1 SessionAttackSpec: estimator is the feature, batch the window
//     size, contacts/maxRounds the train sessions/windows,
//     checkEvery/consecutive the eval sessions/max windows, coverMilli
//     the confidence;
//   - 2 DisclosureSpec: every knob by its name, contacts the cover
//     top-up in pps, consecutive 1 for the churn-aware estimator,
//     targets offset by 64;
//   - 3 FlowCorrelationSpec: the disclosure population, maxRounds the
//     duration in seconds, checkEvery the train windows, mixKind 1 for
//     the unpadded link, targets the feature codes;
//   - 4 CascadeCorrelationSpec: estimator hops of policy dummies (σ_T
//     sigmaMicro µs), users flows, batch the feature window, and the
//     flow-correlation attack knobs;
//   - 5 ActiveDetectionSpec: mixKind is the protocol, dummies the mode,
//     coverMilli the amplitude, users the flows, contacts the cover
//     top-up in pps, consecutive 1 for the unpadded link, estimator
//     hops, and the cascade attack knobs.
func (k fuzzKnobs) spec() Spec {
	churn := float64(k.churnMilli) / 1000
	fl := [numFloatKnobs]float64{
		floatCover:      float64(k.coverMilli) / 1000,
		floatCoverToPPS: float64(k.contacts),
		floatSigmaT:     float64(k.sigmaMicro) / 1e6,
		floatDuration:   float64(k.maxRounds),
		floatBinWidth:   float64(k.consecutive) / 1e6,
		floatMeanOn:     churn,
		floatMeanOff:    churn,
	}
	if k.poison > 0 {
		fl[(k.poison-1)/3%numFloatKnobs] = [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[(k.poison-1)%3]
	}
	cover := fl[floatCover]
	var features []analytic.Feature
	for _, b := range k.targets {
		features = append(features, analytic.Feature(b))
	}
	// The hop count is clamped so the harness itself never allocates
	// without bound.
	hops := make([]CascadeHop, min(max(k.estimator, 0), 8))
	for i := range hops {
		hops[i] = CascadeHop{Policy: CascadePolicy(k.dummies), SigmaT: fl[floatSigmaT]}
	}
	pop := PopulationSpec{
		Users:      k.users,
		Recipients: k.recipients,
		CoverRate:  cover,
		CoverToPPS: fl[floatCoverToPPS],
		Dummies:    population.DummyPolicy(k.dummies),
	}
	if fl[floatMeanOn] != 0 || fl[floatMeanOff] != 0 {
		pop.Churn = &ChurnSpec{MeanOn: fl[floatMeanOn], MeanOff: fl[floatMeanOff]}
	}
	switch (k.kind%6 + 6) % 6 {
	case 0:
		return AttackSetSpec{
			Attack: AttackConfig{
				WindowSize:      k.batch,
				TrainWindows:    k.maxRounds,
				EvalWindows:     k.checkEvery,
				EntropyBinWidth: fl[floatBinWidth],
				GaussianFit:     k.mixSeed%2 == 1,
			},
			Features: features,
		}
	case 1:
		return SessionAttackSpec{Session: SessionAttackConfig{
			Feature:       analytic.Feature(k.estimator),
			WindowSize:    k.batch,
			TrainSessions: k.contacts,
			TrainWindows:  k.maxRounds,
			EvalSessions:  k.checkEvery,
			MaxWindows:    k.consecutive,
			Confidence:    cover,
		}}
	case 2:
		spec := DisclosureSpec{
			Population: pop,
			Disclosure: population.DisclosureConfig{
				Batch: k.batch,
				Mix: population.MixSpec{
					Kind: population.MixKind(k.mixKind),
					Seed: k.mixSeed,
				},
				Estimator:  population.EstimatorKind(k.estimator),
				Dummies:    population.DummyPolicy(k.dummies),
				MaxRounds:  k.maxRounds,
				CheckEvery: k.checkEvery,
				ChurnAware: k.consecutive == 1,
			},
		}
		for _, b := range k.targets {
			spec.Disclosure.Targets = append(spec.Disclosure.Targets, int(b)-64)
		}
		return spec
	case 3:
		return FlowCorrelationSpec{Population: pop, Corr: FlowCorrConfig{
			Duration:     fl[floatDuration],
			TrainWindows: k.checkEvery,
			Features:     features,
			Raw:          k.mixKind == 1,
		}}
	case 4:
		return CascadeCorrelationSpec{
			Cascade: CascadeSpec{Hops: hops, Flows: k.users},
			Corr: CascadeCorrConfig{
				Duration:      fl[floatDuration],
				FeatureWindow: k.batch,
				TrainWindows:  k.checkEvery,
				Features:      features,
			},
		}
	default:
		return ActiveDetectionSpec{
			Active: ActiveSpec{
				Protocol:   ActiveProtocol(k.mixKind),
				Flows:      k.users,
				Mode:       active.Mode(k.dummies),
				Amplitude:  cover,
				Raw:        k.consecutive == 1,
				CoverToPPS: fl[floatCoverToPPS],
				Hops:       hops,
			},
			Detect: ActiveDetectConfig{
				Duration:      fl[floatDuration],
				FeatureWindow: k.batch,
				TrainWindows:  k.checkEvery,
				Features:      features,
			},
		}
	}
}

// fuzzSeeds pins one representative of every axis: for disclosure each
// mix kind, estimator and dummy policy, the documented invalid shapes,
// and the extreme values validation must tolerate; for the other five
// kinds a valid spec, their documented invalid shapes and the budgets
// Run could not execute.
var fuzzSeeds = []fuzzKnobs{
	// kind, users, recipients, contacts, coverMilli, dummies,
	// batch, mixKind, sigmaMicro, poison, mixSeed,
	// estimator, maxRounds, checkEvery, consecutive, workers, churnMilli, targets
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 0, nil},                  // default threshold/classic/none
	{2, 24, 60, 0, 1000, 1, 8, 1, 0, 0, 7, 1, 400, 25, 0, 0, 0, nil},               // pool/ls/uniform with cover
	{2, 24, 60, 0, 1000, 2, 8, 2, 0, 0, 0, 2, 400, 25, 1, 2, 0, nil},               // timed/ml/adaptive, churn-aware
	{2, 24, 60, 0, 0, 1, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 0, nil},                  // uniform dummies without cover: invalid
	{2, 24, 60, 0, 0, 9, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 0, nil},                  // unknown dummy policy
	{2, 24, 60, 0, 0, 0, 8, 7, 0, 0, 0, 0, 400, 25, 0, 1, 0, nil},                  // unknown mix kind
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 0, -3, 400, 25, 0, 1, 0, nil},                 // unknown estimator
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 5, 0, 400, 25, 0, 1, 0, nil},                  // threshold with a pool seed
	{2, 24, 60, 0, 0, 0, 8, 2, 0, 0, 5, 0, 400, 25, 0, 1, 0, nil},                  // timed with a pool seed
	{2, 24, 60, 0, 0, 0, 8, -1, 0, 0, 0, 0, 400, 25, 0, 1, 0, nil},                 // negative mix kind
	{2, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, nil},                       // degenerate population
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 0, []byte{3, 3}},         // duplicate targets
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 0, []byte{200}},          // target out of range
	{2, -5, -5, -1, -1, 0, -8, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0, []byte{255}},      // everything negative
	{2, 1 << 40, 60, 0, 0, 0, 8, 0, 0, 0, ^uint64(0), 0, 1 << 50, 1, 1, 1, 0, nil}, // extreme sizes

	{0, 0, 0, 0, 0, 0, 300, 0, 0, 0, 0, 0, 20, 20, 0, 1, 0, []byte{0, 1, 2}},          // attack set
	{0, 0, 0, 0, 0, 0, 300, 0, 0, 0, 0, 0, 20, 20, 0, 1, 0, nil},                      // no features
	{0, 0, 0, 0, 0, 0, 300, 0, 0, 0, 1, 0, 1, 20, 5, 1, 0, []byte{2}},                 // one training window
	{1, 0, 0, 2, 0, 0, 300, 0, 0, 0, 0, 2, 24, 4, 3, 1, 0, nil},                       // session
	{1, 0, 0, 2, 1500, 0, 300, 0, 0, 0, 0, 2, 24, 4, 3, 1, 0, nil},                    // confidence past 1
	{1, 0, 0, 2, 0, 0, -5, 0, 0, 0, 0, 2, 24, -3, 3, 1, 0, nil},                       // negative window size and eval sessions
	{3, 8, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 12, 0, 1, 0, []byte{1}},                 // flow correlation
	{3, 8, 40, 0, 0, 0, 0, 1, 0, 0, 0, 0, 20, 12, 0, 1, 0, nil},                       // unpadded flows
	{3, 1, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 12, 0, 1, 0, []byte{1}},                 // one user
	{4, 4, 0, 0, 0, 0, 100, 0, 0, 0, 0, 2, 30, 8, 0, 1, 0, []byte{1}},                 // two-CIT cascade
	{4, 4, 0, 0, 0, 0, 100, 0, 0, 0, 0, 0, 30, 8, 0, 1, 0, []byte{1}},                 // no hops
	{4, 4, 0, 0, 0, 7, 100, 0, 0, 0, 0, 1, 30, 8, 0, 1, 0, []byte{1}},                 // unknown hop policy
	{5, 8, 0, 0, 20000, 1, 100, 0, 0, 0, 0, 0, 20, 2, 0, 1, 0, []byte{1}},             // chaff watermark, replica
	{5, 8, 0, 0, 20000, 1, 100, 3, 300, 0, 0, 2, 20, 2, 0, 1, 0, []byte{1}},           // chaff watermark, cascade
	{5, 8, 0, 0, 0, 1, 100, 0, 0, 0, 0, 0, 20, 2, 0, 1, 0, []byte{1}},                 // zero amplitude
	{5, 8, 0, 0, 20000, 9, 100, 0, 0, 0, 0, 0, 20, 2, 0, 1, 0, []byte{1}},             // unknown mode
	{-1, 8, 0, 0, 20000, 1, 100, 9, 0, 0, 0, 0, 20, 2, 0, 1, 0, []byte{1}},            // negative kind, unknown protocol
	{1 << 40, -7, 1 << 40, -1, -1, -9, -1, -9, -1, -1, 1, -9, -1, -1, -1, -1, 0, nil}, // extremes everywhere

	{3, 8, 40, 0, 0, 0, 0, 0, 0, 10, 0, 0, 20, 12, 0, 1, 0, nil},           // NaN flow duration
	{3, 8, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 12, 0, 1, 0, nil},            // negative flow duration
	{4, 4, 0, 0, 0, 0, 100, 0, 0, 11, 0, 2, 30, 8, 0, 1, 0, nil},           // infinite cascade duration
	{4, 4, 0, 0, 0, 0, 100, 0, 0, 0, 0, 2, 1e13, 8, 0, 1, 0, nil},          // cascade duration past memory
	{3, 8, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1e13, 12, 0, 1, 0, nil},          // flow duration past memory
	{5, 8, 0, 0, 20000, 1, 100, 0, 0, 0, 0, 0, 1e13, 2, 0, 1, 0, nil},      // watermark duration past memory
	{5, 8, 0, 0, 20000, 1, 100, 0, 0, 10, 0, 0, 20, 2, 0, 1, 0, nil},       // NaN watermark duration
	{5, 8, 0, 0, 20000, 1, 100, 0, 0, 0, 0, 0, 3, 2, 0, 1, 0, nil},         // too few chip slots
	{5, 8, 0, 10, 20000, 1, 100, 2, 0, 0, 0, 0, 20, 2, 1, 1, 0, []byte{1}}, // raw population watermark with cover
	{4, 4, 0, 0, 0, 1, 100, 0, 300, 0, 0, 2, 30, 8, 0, 1, 0, []byte{1}},    // two-VIT cascade
	{0, 0, 0, 0, 0, 0, -5, 0, 0, 0, 0, 0, 20, -3, 0, 1, 0, []byte{1}},      // negative replica window size and eval windows
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 0, 1, 2000, nil},       // churned population

	// Non-finite floats Build must refuse, naming the field.
	{5, 8, 0, 0, 20000, 1, 100, 0, 0, 2, 0, 0, 20, 2, 0, 1, 0, []byte{1}},  // +Inf watermark amplitude
	{5, 8, 0, 10, 20000, 1, 100, 2, 0, 4, 0, 0, 20, 2, 0, 1, 0, []byte{1}}, // NaN active cover top-up
	{5, 8, 0, 10, 20000, 1, 100, 2, 0, 5, 0, 0, 20, 2, 0, 1, 0, []byte{1}}, // +Inf active cover top-up
	{2, 24, 60, 0, 1000, 1, 8, 0, 0, 1, 0, 0, 400, 25, 0, 1, 0, nil},       // NaN cover rate, uniform dummies
	{2, 24, 60, 0, 1000, 1, 8, 0, 0, 2, 0, 0, 400, 25, 0, 1, 0, nil},       // +Inf cover rate, uniform dummies
	{2, 24, 60, 10, 0, 1, 8, 0, 0, 4, 0, 0, 400, 25, 0, 1, 0, nil},         // NaN cover top-up, uniform dummies
	{2, 24, 60, 10, 0, 1, 8, 0, 0, 5, 0, 0, 400, 25, 0, 1, 0, nil},         // +Inf cover top-up, uniform dummies
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 17, 0, 0, 400, 25, 0, 1, 2000, nil},      // +Inf churn MeanOn
	{2, 24, 60, 0, 0, 0, 8, 0, 0, 20, 0, 0, 400, 25, 0, 1, 2000, nil},      // +Inf churn MeanOff
	{4, 4, 0, 0, 0, 1, 100, 0, 300, 8, 0, 2, 30, 8, 0, 1, 0, []byte{1}},    // +Inf VIT hop SigmaT
	{0, 0, 0, 0, 0, 0, 300, 0, 0, 13, 0, 0, 20, 20, 0, 1, 0, []byte{1}},    // NaN entropy bin width
	{0, 0, 0, 0, 0, 0, 300, 0, 0, 14, 0, 0, 20, 20, 0, 1, 0, []byte{1}},    // +Inf entropy bin width
	{0, 0, 0, 0, 0, 0, 300, 0, 0, 15, 0, 0, 20, 20, 0, 1, 0, []byte{1}},    // -Inf entropy bin width
}

// FuzzDisclosureSpecBuild throws arbitrary field values at Build for all
// six spec kinds (the name predates the other five). Build must never
// panic, every spec it accepts must hold only finite floats, and an
// accepted disclosure spec must also pass the population layer's
// standalone validation. Every seed Build accepts is also run to
// completion — the seeds' budgets are small — and must return only
// finite numbers; fuzzed specs are only built, since a valid spec with a
// huge budget is still a valid spec.
func FuzzDisclosureSpecBuild(f *testing.F) {
	for _, k := range fuzzSeeds {
		f.Add(k.kind, k.users, k.recipients, k.contacts, k.coverMilli, k.dummies,
			k.batch, k.mixKind, k.sigmaMicro, k.poison, k.mixSeed,
			k.estimator, k.maxRounds, k.checkEvery, k.consecutive, k.workers, k.churnMilli, k.targets)
	}
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		f.Fatal(err)
	}
	for i, k := range fuzzSeeds {
		spec := k.spec()
		sc, err := sys.Build(spec)
		if err != nil {
			continue
		}
		// Reported, not run: a non-finite spec may never finish.
		if err := checkFinite(spec); err != nil {
			f.Errorf("seed %d (%T): Build accepted a non-finite spec: %v", i, spec, err)
			continue
		}
		res, err := sc.Run(context.Background(), RunOptions{Workers: k.workers})
		if err != nil {
			f.Fatalf("seed %d (%T): accepted by Build, failed to run: %v", i, spec, err)
		}
		if err := checkFinite(res); err != nil {
			f.Fatalf("seed %d (%T): Result: %v", i, spec, err)
		}
	}
	f.Fuzz(func(t *testing.T, kind, users, recipients, contacts, coverMilli, dummies,
		batch, mixKind, sigmaMicro, poison int, mixSeed uint64,
		estimator, maxRounds, checkEvery, consecutive, workers, churnMilli int, targets []byte) {
		spec := fuzzKnobs{kind, users, recipients, contacts, coverMilli, dummies,
			batch, mixKind, sigmaMicro, poison, mixSeed,
			estimator, maxRounds, checkEvery, consecutive, workers, churnMilli, targets}.spec()
		if _, err := sys.Build(spec); err != nil {
			return
		}
		if err := checkFinite(spec); err != nil {
			t.Fatalf("Build accepted a non-finite spec: %v", err)
		}
		// Build cannot be more permissive than the population engine it
		// hands a disclosure config to.
		if d, ok := spec.(DisclosureSpec); ok {
			cfg := d.Disclosure
			cfg.Dummies = d.Population.Dummies
			if err := cfg.Validate(d.Population.Users); err != nil {
				t.Fatalf("Build accepted a spec the population layer rejects: %v", err)
			}
		}
	})
}
