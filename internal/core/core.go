package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/cascade"
	"linkpad/internal/gateway"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// PayloadModel selects the payload arrival process.
type PayloadModel int

// Supported payload models.
const (
	// PayloadPoisson is memoryless user traffic (default).
	PayloadPoisson PayloadModel = iota
	// PayloadCBR is constant-rate traffic with a small clock jitter.
	PayloadCBR
	// PayloadOnOff is bursty interactive traffic (MMPP), 50% duty cycle.
	PayloadOnOff
)

// String names the model.
func (m PayloadModel) String() string {
	switch m {
	case PayloadPoisson:
		return "poisson"
	case PayloadCBR:
		return "cbr"
	case PayloadOnOff:
		return "onoff"
	default:
		return "unknown"
	}
}

// Rate is one payload-rate hypothesis ω_i.
type Rate struct {
	// Label names the class in reports, e.g. "10pps".
	Label string
	// PPS is the payload packet rate in packets per second.
	PPS float64
}

// HopSpec describes one router of the unprotected path.
type HopSpec struct {
	// CapacityBps is the outgoing link capacity in bits per second.
	CapacityBps float64
	// PacketBytes is the constant packet size on the link.
	PacketBytes int
	// Util is the crossover-traffic utilization profile of the link.
	Util traffic.Diurnal
	// PropDelay is the constant propagation delay to the next hop.
	PropDelay float64
}

// service returns the hop's per-packet service time.
func (h HopSpec) service() float64 {
	return netem.ServiceTime(h.CapacityBps, h.PacketBytes)
}

// AdaptiveSpec configures Timmerman-style adaptive traffic masking (the
// paper's §2 related-work baseline): after IdleAfter consecutive fires
// with an empty payload queue the timer interval stretches from Tau to
// IdleFactor·Tau, saving bandwidth at the cost of a first-order rate leak.
type AdaptiveSpec struct {
	// IdleFactor scales Tau for the idle interval; must exceed 1.
	IdleFactor float64
	// IdleAfter is the number of consecutive empty-queue fires before the
	// policy stretches the interval; must be at least 1.
	IdleAfter int
}

// MixSpec configures the Chaum batching baseline. Burst packets leave
// defaultMixSpacing apart.
type MixSpec struct {
	// K is the batch size; at least 2.
	K int
}

// Config describes a complete link-padding system.
type Config struct {
	// Tau is the mean timer interval (padding period), e.g. 10 ms.
	Tau float64
	// SigmaT is the VIT interval standard deviation; 0 selects CIT.
	SigmaT float64
	// Adaptive, when non-nil, selects the adaptive masking baseline
	// instead of CIT/VIT (mutually exclusive with SigmaT > 0).
	Adaptive *AdaptiveSpec
	// Mix, when non-nil, selects the Chaum batch-of-K baseline (paper §2
	// ref. [3]): no timer, no dummies, flush every K payload packets.
	// Mutually exclusive with SigmaT > 0 and Adaptive.
	Mix *MixSpec
	// Jitter is the gateway host's timer-disturbance model.
	Jitter gateway.JitterModel
	// Rates are the payload-rate hypotheses (at least two).
	Rates []Rate
	// Payload selects the payload arrival process.
	Payload PayloadModel
	// Hops is the router path between the gateways; empty means the
	// adversary taps directly at the sender gateway output.
	Hops []HopSpec
	// ExactNetwork simulates every crossover packet through exact FIFO
	// router queues (netem.Router) instead of the stationary M/D/1
	// sampler. Much slower; requires constant (non-diurnal) hop
	// utilizations. Used to cross-validate the fast path.
	ExactNetwork bool
	// StartHour anchors diurnal profiles: simulation time 0 is this hour
	// of day.
	StartHour float64
	// TapResolution quantizes tap timestamps (0 = perfect clock).
	TapResolution float64
	// PathImpair, when enabled, impairs the forward path after the router
	// hops: packets really are lost, duplicated or displaced before any
	// tap sees them. Applies to every observation protocol that crosses
	// the shared observation chain.
	PathImpair *netem.Impairment
	// TapImpair, when enabled, impairs the adversary's exit capture after
	// the quantization stage: the wire is untouched, the recording is
	// not. A capture that only misses packets is
	// &netem.Impairment{LossProb: p}.
	TapImpair *netem.Impairment
	// EntryTapImpair, when enabled, impairs the adversary's ingress taps
	// (the cascade entry recorder and the population ingress view): those
	// vantage points miss, double-record or mis-order observations
	// independently of the exit capture.
	EntryTapImpair *netem.Impairment
	// Seed is the master seed; all streams derive from it.
	Seed uint64
}

// DefaultLabConfig returns the paper's §5 baseline: CIT with τ = 10 ms on
// a TimeSys-like gateway, payload at 10 or 40 pps with equal priors, tap
// at the sender gateway output (zero cross traffic).
func DefaultLabConfig() Config {
	return Config{
		Tau:    10e-3,
		Jitter: gateway.DefaultJitter(),
		Rates: []Rate{
			{Label: "10pps", PPS: 10},
			{Label: "40pps", PPS: 40},
		},
		Payload: PayloadPoisson,
		Seed:    1,
	}
}

// checkFinite is core's one non-finite rule: it refuses a NaN or
// infinite float anywhere below v (exported fields, pointers, interfaces,
// slices, arrays), naming its path, e.g. Population.Churn.MeanOn. No core
// field gives an infinity a meaning; validators run it first and then
// compare only finite values, which NaN cannot slip past.
func checkFinite(v any) error {
	if path, f, bad := nonFinite(reflect.ValueOf(v)); bad {
		return fmt.Errorf("core: %s is %v; want a finite value", strings.TrimPrefix(path, "."), f)
	}
	return nil
}

// nonFinite returns the path below v of the first non-finite float and
// that float; the path is built only on the way out of a find.
func nonFinite(v reflect.Value) (path string, f float64, bad bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f = v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if fd := v.Type().Field(i); fd.IsExported() {
				if p, f, bad := nonFinite(v.Field(i)); bad {
					return "." + fd.Name + p, f, true
				}
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, f, bad := nonFinite(v.Index(i)); bad {
				return fmt.Sprintf("[%d]%s", i, p), f, true
			}
		}
	}
	return "", 0, false
}

// Validate checks the configuration, first by checkFinite.
func (c Config) Validate() error {
	if err := checkFinite(c); err != nil {
		return err
	}
	if !(c.Tau > 0) {
		return errors.New("core: Tau must be positive")
	}
	if c.SigmaT < 0 {
		return errors.New("core: SigmaT must be non-negative")
	}
	if c.Adaptive != nil {
		if c.SigmaT > 0 {
			return errors.New("core: Adaptive and SigmaT are mutually exclusive")
		}
		if !(c.Adaptive.IdleFactor > 1) {
			return errors.New("core: Adaptive.IdleFactor must exceed 1")
		}
		if c.Adaptive.IdleAfter < 1 {
			return errors.New("core: Adaptive.IdleAfter must be at least 1")
		}
	}
	if c.Mix != nil {
		if c.SigmaT > 0 || c.Adaptive != nil {
			return errors.New("core: Mix is mutually exclusive with SigmaT and Adaptive")
		}
		if c.Mix.K < 2 {
			return errors.New("core: Mix.K must be at least 2")
		}
	}
	if err := c.Jitter.Validate(); err != nil {
		return err
	}
	if len(c.Rates) < 2 {
		return errors.New("core: need at least two payload rates")
	}
	seen := map[string]bool{}
	for i, r := range c.Rates {
		if !(r.PPS > 0) {
			return fmt.Errorf("core: rate %d has non-positive PPS", i)
		}
		if r.Label == "" {
			return fmt.Errorf("core: rate %d has empty label", i)
		}
		if seen[r.Label] {
			return fmt.Errorf("core: duplicate rate label %q", r.Label)
		}
		seen[r.Label] = true
	}
	for i, h := range c.Hops {
		if h.CapacityBps <= 0 || h.PacketBytes <= 0 || h.PropDelay < 0 {
			return fmt.Errorf("core: hop %d: invalid link parameters", i)
		}
		if err := h.Util.Validate(); err != nil {
			return fmt.Errorf("core: hop %d: %w", i, err)
		}
		if c.ExactNetwork && h.Util.Peak != h.Util.Trough {
			return fmt.Errorf("core: hop %d: exact network requires constant utilization", i)
		}
	}
	if c.TapResolution < 0 {
		return errors.New("core: tap resolution must be non-negative")
	}
	for _, im := range []struct {
		name string
		im   *netem.Impairment
	}{
		{"PathImpair", c.PathImpair},
		{"TapImpair", c.TapImpair},
		{"EntryTapImpair", c.EntryTapImpair},
	} {
		if err := im.im.Validate(); err != nil {
			return fmt.Errorf("core: %s: %w", im.name, err)
		}
	}
	if c.StartHour < 0 || c.StartHour >= 24 {
		return errors.New("core: start hour must be in [0,24)")
	}
	return nil
}

// System is a validated link-padding system description.
type System struct {
	cfg Config
}

// NewSystem validates cfg and returns a System.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Labels returns the class labels in rate order.
func (s *System) Labels() []string {
	ls := make([]string, len(s.cfg.Rates))
	for i, r := range s.cfg.Rates {
		ls[i] = r.Label
	}
	return ls
}

// streamSeed derives a deterministic seed for (class, streamID), spread
// by SplitMix64-style mixing so adjacent IDs give unrelated streams.
func (s *System) streamSeed(class int, streamID uint64) uint64 {
	z := s.cfg.Seed ^ (uint64(class+1) * 0x9e3779b97f4a7c15) ^ (streamID * 0xbf58476d1ce4e5b9)
	z ^= z >> 29
	z *= 0x94d049bb133111eb
	z ^= z >> 32
	return z
}

// payloadModel validates the payload arrival process for class as a
// Model, which Start starts on a stream.
func (s *System) payloadModel(class int) (traffic.Model, error) {
	pps := s.cfg.Rates[class].PPS
	switch s.cfg.Payload {
	case PayloadPoisson:
		return traffic.PoissonModel(pps)
	case PayloadCBR:
		// 10% of the interval as clock jitter so CBR phase is not locked
		// to the padding timer.
		return traffic.CBRModel(pps, 0.1/pps)
	case PayloadOnOff:
		// 50% duty cycle bursts of 200 ms average, peak 2x the mean rate.
		return traffic.OnOffModel(2*pps, 0.2, 0.2)
	default:
		return traffic.Model{}, fmt.Errorf("core: unknown payload model %v", s.cfg.Payload)
	}
}

// Gateway builds a fresh replica of the padding gateway for the given
// class — the system as seen at GW1's output, before the network path —
// exposing the gateway's activity statistics for overhead and QoS
// measurements. streamID selects the replica as in PIATSource. Mix
// systems have no timer gateway; use MixGateway instead.
func (s *System) Gateway(class int, streamID uint64) (*gateway.Gateway, error) {
	if s.cfg.Mix != nil {
		return nil, errors.New("core: mix systems have no timer gateway; use MixGateway")
	}
	hop, _, err := s.replicaHop(class, streamID, nil)
	if err != nil {
		return nil, err
	}
	return hop.(*gateway.Gateway), nil
}

// MixGateway builds a fresh replica of the Chaum batching proxy for the
// given class. It errors unless the system is configured with Mix.
func (s *System) MixGateway(class int, streamID uint64) (*gateway.Mix, error) {
	if s.cfg.Mix == nil {
		return nil, errors.New("core: system is not configured as a mix")
	}
	hop, _, err := s.replicaHop(class, streamID, nil)
	if err != nil {
		return nil, err
	}
	return hop.(*gateway.Mix), nil
}

// replicaHop builds one replica's padded hop — the class payload source
// through the system's padding policy — and returns it with the master
// RNG of the downstream observation chain. The replica's stream seed
// feeds the payload split and then padHop; a mix replica's downstream
// chain draws from a distinct branch of the same seed instead.
func (s *System) replicaHop(class int, streamID uint64, sh *obs.Shard) (netem.TimeStream, *xrand.Rand, error) {
	if class < 0 || class >= len(s.cfg.Rates) {
		return nil, nil, fmt.Errorf("core: class %d out of range", class)
	}
	master := xrand.New(s.streamSeed(class, streamID))
	payload, err := s.payloadModel(class)
	if err != nil {
		return nil, nil, err
	}
	payload.Start(master.Split().Stream)
	hop, _, err := s.padHop(s.systemPad(), &payload, master, nil, sh)
	if err != nil {
		return nil, nil, err
	}
	if s.cfg.Mix != nil {
		master = xrand.New(s.streamSeed(class, streamID) ^ 0xa5a5a5a5a5a5a5a5)
	}
	return hop, master, nil
}

// padPolicy is one padded hop's resolved padding stage: a timer gateway
// (CIT, VIT when sigmaT > 0, or adaptive masking), optionally started at
// a private random phase, or a batch-of-mixK mix when mixK > 0. systemPad
// and hopPad resolve it; padHop builds it.
type padPolicy struct {
	// name labels the stage in overhead reports.
	name     string
	tau      float64
	sigmaT   float64
	adaptive *AdaptiveSpec
	phased   bool
	mixK     int
}

// defaultMixSpacing is the wire spacing of mix burst packets, 1500 B at
// 100 Mbit/s: the single-link default and every cascade mix hop's.
const defaultMixSpacing = 120e-6

// defaultMixK is the batch size of every cascade mix hop.
const defaultMixK = 8

// systemPad resolves the system's padding policy.
func (s *System) systemPad() padPolicy {
	p := padPolicy{tau: s.cfg.Tau, sigmaT: s.cfg.SigmaT, adaptive: s.cfg.Adaptive}
	switch {
	case s.cfg.Mix != nil:
		p.name, p.mixK = "MIX", s.cfg.Mix.K
	case s.cfg.Adaptive != nil:
		p.name = "ADAPTIVE"
	case s.cfg.SigmaT > 0:
		p.name = "VIT"
	default:
		p.name = "CIT"
	}
	return p
}

// timer builds the policy's timer, drawing a VIT's interval stream from
// master; CIT and adaptive timers draw nothing.
func (p padPolicy) timer(master *xrand.Rand) (gateway.TimerPolicy, error) {
	switch {
	case p.adaptive != nil:
		return gateway.NewAdaptive(p.tau, p.adaptive.IdleFactor*p.tau, p.adaptive.IdleAfter)
	case p.sigmaT > 0:
		return gateway.NewVIT(p.tau, p.sigmaT, master.Split())
	default:
		return gateway.NewCIT(p.tau)
	}
}

// padHop builds one padded hop of any protocol: src enters a timer
// gateway or a mix under the system's host jitter, tap (when non-nil)
// observes its arrivals, and sh counts its telemetry. It draws from
// master in a fixed order — a timer hop splits for a VIT's intervals
// (VIT only), then for its phase (phased only), then for the gateway; a
// mix hop splits once — so every protocol's streams are pinned by its
// own seeds. It returns the hop's departure stream and its overhead
// probe.
func (s *System) padHop(p padPolicy, src traffic.Source, master *xrand.Rand, tap func(float64), sh *obs.Shard) (netem.TimeStream, cascade.HopProbe, error) {
	if p.mixK > 0 {
		mix, err := gateway.NewMix(gateway.MixConfig{
			K:           p.mixK,
			SendSpacing: defaultMixSpacing,
			Payload:     src,
			Jitter:      s.cfg.Jitter,
			RNG:         master.Split(),
			ArrivalTap:  tap,
			Probe:       sh,
		})
		if err != nil {
			return nil, nil, err
		}
		return mix, func() cascade.HopStats {
			return cascade.HopStats{Policy: p.name, Emitted: mix.Packets()}
		}, nil
	}
	policy, err := p.timer(master)
	if err != nil {
		return nil, nil, err
	}
	if p.phased {
		// Hops share no clock: each timer grid gets a private random
		// phase, or consecutive equal-τ hops would sit phase-locked on
		// each other's grid boundaries.
		if policy, err = cascade.NewPhasedPolicy(policy, master.Split()); err != nil {
			return nil, nil, err
		}
	}
	gw, err := gateway.New(gateway.Config{
		Policy:     policy,
		Jitter:     s.cfg.Jitter,
		Payload:    src,
		RNG:        master.Split(),
		ArrivalTap: tap,
		Probe:      sh,
	})
	if err != nil {
		return nil, nil, err
	}
	return gw, func() cascade.HopStats {
		st := gw.Stats()
		return cascade.HopStats{Policy: p.name, Emitted: st.Fires, Dummies: st.Dummies}
	}, nil
}

// PIATSource builds a fresh, independent realization of the padded-stream
// PIAT process for the given class, observed at the adversary's tap.
// streamID distinguishes replicas: training and evaluation must use
// different IDs (the same ID reproduces the identical stream).
func (s *System) PIATSource(class int, streamID uint64) (adversary.PIATSource, error) {
	return s.tap(class, streamID)
}

// tap assembles the full observation chain for one stream realization —
// gateway (or mix), network path, tap imperfections — and returns the
// differencing tap, whose stream clock the session layer reads.
func (s *System) tap(class int, streamID uint64) (*netem.Differ, error) {
	// One telemetry shard per chain, owned by whichever goroutine pulls
	// the chain; the Differ carries it so batched consumers can drain it
	// at slab boundaries. Nil (collection disabled) threads through every
	// element for free.
	sh := obs.NewShard()
	stream, master, err := s.replicaHop(class, streamID, sh)
	if err != nil {
		return nil, err
	}
	if stream, err = s.observationChain(stream, master, sh); err != nil {
		return nil, err
	}
	return netem.NewDiffer(stream, sh), nil
}

// observationChain layers the unprotected network path and the tap
// imperfections over a padded departure stream, in the fixed order every
// observation protocol shares: hops (exact routers or the stationary
// sampler), then the forward-path impairment, then clock quantization,
// then the capture impairment (capture loss among it). All randomness is
// drawn from master in that order; disabled stages draw nothing, so a
// configuration without impairments reproduces the pre-fault-model
// streams bit for bit. probe is the chain's telemetry shard (nil when
// collection is disabled): the loss/duplication/reorder stages count
// into it, and it never influences any draw.
func (s *System) observationChain(stream netem.TimeStream, master *xrand.Rand, probe *obs.Shard) (netem.TimeStream, error) {
	var err error
	switch {
	case len(s.cfg.Hops) > 0 && s.cfg.ExactNetwork:
		for _, h := range s.cfg.Hops {
			svc := h.service()
			var cross traffic.Model // zero: a dedicated link
			if u := h.Util.Peak; u > 0 {
				if cross, err = traffic.PoissonModel(u / svc); err != nil {
					return nil, err
				}
				cross.Start(master.Split().Stream)
			}
			stream, err = netem.NewRouter(stream, cross, svc, h.PropDelay)
			if err != nil {
				return nil, err
			}
		}
	case len(s.cfg.Hops) > 0:
		hops := make([]netem.Hop, len(s.cfg.Hops))
		for i, h := range s.cfg.Hops {
			hops[i] = netem.Hop{
				Service: h.service(),
				Util:    netem.DiurnalUtil(h.Util, s.cfg.StartHour),
				Prop:    h.PropDelay,
			}
		}
		stream, err = netem.NewPath(stream, hops, master.Split())
		if err != nil {
			return nil, err
		}
	}
	if s.cfg.PathImpair.Enabled() {
		if stream, err = netem.NewImpairer(stream, s.cfg.PathImpair, master.Split(), probe); err != nil {
			return nil, err
		}
	}
	if s.cfg.TapResolution > 0 {
		stream, err = netem.NewQuantizer(stream, s.cfg.TapResolution)
		if err != nil {
			return nil, err
		}
	}
	if s.cfg.TapImpair.Enabled() {
		if stream, err = netem.NewImpairer(stream, s.cfg.TapImpair, master.Split(), probe); err != nil {
			return nil, err
		}
	}
	return stream, nil
}

// entryTapWrap impairs an ingress-tap record callback with the system's
// entry-tap impairment; the RNG is derived lazily from the given role
// stream seed only when the impairment is enabled, so baseline
// configurations construct nothing and stay bit-identical.
func (s *System) entryTapWrap(record func(float64), class int, streamID uint64, probe *obs.Shard) (func(float64), error) {
	if record == nil || !s.cfg.EntryTapImpair.Enabled() {
		return record, nil
	}
	return s.cfg.EntryTapImpair.WrapRecordObs(record, xrand.New(s.streamSeed(class, streamID)), probe)
}

// AttackConfig describes one adversary experiment against the system.
type AttackConfig struct {
	// Feature is the statistic the adversary classifies on.
	Feature analytic.Feature
	// WindowSize is the run-time sample size n.
	WindowSize int
	// TrainWindows is the number of off-line training windows per class.
	TrainWindows int
	// EvalWindows is the number of run-time windows classified per class.
	EvalWindows int
	// EntropyBinWidth overrides the entropy histogram bin width (0 =
	// default 2 µs).
	EntropyBinWidth float64
	// GaussianFit replaces the KDE training with a parametric normal fit.
	GaussianFit bool
	// SkipEmpiricalR skips the two-class variance-ratio measurement (and
	// the closed-form theory evaluation that consumes it). The ratio is
	// simulated on dedicated stream replicas that can cost as much as the
	// attack itself, so experiments that only report detection rates or
	// confusion matrices set this; it cannot change their numbers, because
	// the ratio replicas are independent streams the attack never reads.
	SkipEmpiricalR bool
}

// withDefaults fills zero fields.
func (a AttackConfig) withDefaults() AttackConfig {
	if a.WindowSize == 0 {
		a.WindowSize = 1000
	}
	if a.TrainWindows == 0 {
		a.TrainWindows = 200
	}
	if a.EvalWindows == 0 {
		a.EvalWindows = 200
	}
	return a
}

// The replica attack's phase base stream IDs: training windows spread
// from replica 1, evaluation windows from replica 2 (windowStreamID).
const (
	trainStreamID = 1
	evalStreamID  = 2
)

// AttackResult reports one adversary experiment.
type AttackResult struct {
	// Feature and WindowSize echo the attack parameters.
	Feature    analytic.Feature
	WindowSize int
	// DetectionRate is the measured probability of correct classification.
	DetectionRate float64
	// Confusion is the full confusion matrix over classes.
	Confusion *bayes.Confusion
	// EmpiricalR is the measured PIAT variance ratio between the last and
	// first class (two-class systems only; 0 otherwise).
	EmpiricalR float64
	// TheoryDetectionRate evaluates the paper's closed-form theorem at
	// EmpiricalR (two-class systems only; 0 otherwise).
	TheoryDetectionRate float64
}

// validateAttackSet checks a defaulted attack configuration and its
// feature set; Build and every attackSet caller go through it.
func validateAttackSet(cfg AttackConfig, features []analytic.Feature) error {
	if err := checkFinite(cfg); err != nil {
		return err
	}
	if len(features) == 0 {
		return errors.New("core: attack set needs at least one feature")
	}
	if cfg.WindowSize < 2 || cfg.TrainWindows < 2 || cfg.EvalWindows < 1 {
		return errors.New("core: attack set needs a window size and training windows of at least 2 and at least one evaluation window")
	}
	return nil
}

// attackSet runs the attack for several feature statistics against the
// *same* Monte Carlo windows in one pass: every training and evaluation
// window is simulated once and reduced by all feature extractors
// simultaneously. The padded-stream simulation dominates the attack cost,
// so a three-feature sweep point runs ~3x faster than three single-feature
// calls while measuring every feature on identical data (which the
// separate calls also did — they replayed the same stream replicas).
// Results are returned in the order of the features argument.
//
// Windows are drawn from per-trial stream replicas and extracted on up to
// opts.Workers goroutines; tables built from these results are identical
// for any worker count.
//
// Protocol note: each window is an independent replica of the system
// started at time zero (i.i.d. windows), where the paper taps consecutive
// windows of one continuous stream. The fast network path draws per-packet
// waits from the *stationary* M/D/1 distribution, so replicas carry no
// queue warm-up; the gateway and exact-router transients span a few
// packets of a >=100-packet window. The validate-exactnet and
// ablation-theorygap experiments confirm the i.i.d.-window measurements
// agree with the exact simulation and the closed-form theory, and the
// ablation-windowing experiment quantifies the residual protocol gap
// against the session scenario's continuous-stream sessions, which implement
// the paper's consecutive-window observation directly.
func (s *System) attackSet(ctx context.Context, cfg AttackConfig, features []analytic.Feature, opts RunOptions) ([]*AttackResult, error) {
	cfg = cfg.withDefaults()
	if err := validateAttackSet(cfg, features); err != nil {
		return nil, err
	}
	exts := make([]adversary.Extractor, len(features))
	for i, f := range features {
		exts[i] = adversary.Extractor{Feature: f, EntropyBinWidth: cfg.EntropyBinWidth}
	}
	m := len(s.cfg.Rates)
	labels := s.Labels()
	factory := func(class int, base uint64) adversary.SourceFactory {
		return func(w int) (adversary.PIATSource, error) {
			if err := context.Cause(ctx); err != nil {
				return nil, err
			}
			return s.PIATSource(class, windowStreamID(base, w))
		}
	}

	// Off-line training: one streaming pass per class over shared windows,
	// then one fitted classifier per feature.
	trainMats := make([][][]float64, m) // [class][feature][window]
	for c := 0; c < m; c++ {
		mat, err := adversary.FeatureMatrix(factory(c, trainStreamID), exts,
			cfg.TrainWindows, cfg.WindowSize, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: training class %q: %w", labels[c], err)
		}
		trainMats[c] = mat
	}
	classifiers, err := adversary.Fit(labels, trainMats, cfg.GaussianFit)
	if err != nil {
		return nil, err
	}

	// Run-time classification: fresh replicas, batch-scored per class.
	cms := make([]*bayes.Confusion, len(features))
	for fi := range cms {
		cms[fi] = bayes.NewConfusion(labels)
	}
	var preds []int
	for c := 0; c < m; c++ {
		mat, err := adversary.FeatureMatrix(factory(c, evalStreamID), exts,
			cfg.EvalWindows, cfg.WindowSize, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating class %q: %w", labels[c], err)
		}
		for fi := range features {
			preds = classifiers[fi].ClassifyBatch(mat[fi], preds)
			for _, pred := range preds {
				cms[fi].Add(c, pred)
			}
		}
	}

	// Diagnostics shared by every feature: the empirical variance ratio is
	// a property of the streams, not of the feature, so it is measured
	// once per set (on yet another pair of replicas, so it does not
	// consume attack data).
	var empiricalR float64
	if m == 2 && !cfg.SkipEmpiricalR {
		rLow, err := s.PIATSource(0, evalStreamID+1000)
		if err != nil {
			return nil, err
		}
		rHigh, err := s.PIATSource(1, evalStreamID+1000)
		if err != nil {
			return nil, err
		}
		nR := cfg.WindowSize * cfg.TrainWindows
		if nR > 400000 {
			nR = 400000
		}
		if nR < 10000 {
			nR = 10000
		}
		empiricalR, err = adversary.EmpiricalR(rLow, rHigh, nR)
		if err != nil {
			return nil, err
		}
	}

	results := make([]*AttackResult, len(features))
	for fi, f := range features {
		res := &AttackResult{
			Feature:       f,
			WindowSize:    cfg.WindowSize,
			DetectionRate: cms[fi].DetectionRate(),
			Confusion:     cms[fi],
			EmpiricalR:    empiricalR,
		}
		if m == 2 && !cfg.SkipEmpiricalR && analytic.HasTheorem(f) {
			v, err := analytic.DetectionRate(f, empiricalR, cfg.WindowSize)
			if err != nil {
				return nil, err
			}
			res.TheoryDetectionRate = v
		}
		results[fi] = res
	}
	return results, nil
}

// ModelR predicts the PIAT variance ratio r (eq. 16) from the system
// parameters for a two-class system, evaluating diurnal hop utilizations
// at the given hour of day. The per-hop queueing noise uses the
// closed-form M/D/1 waiting variance.
func (s *System) ModelR(hour float64) (float64, error) {
	if len(s.cfg.Rates) != 2 {
		return 0, errors.New("core: ModelR requires exactly two rates")
	}
	if s.cfg.Adaptive != nil || s.cfg.Mix != nil {
		return 0, errors.New("core: the equal-mean variance-ratio model applies only to CIT/VIT padding")
	}
	// Only Mean/IntervalVar are used; the rng is irrelevant here.
	policy, err := s.systemPad().timer(xrand.New(1))
	if err != nil {
		return 0, err
	}
	varL := gateway.PIATVar(policy, s.cfg.Jitter, s.cfg.Rates[0].PPS)
	varH := gateway.PIATVar(policy, s.cfg.Jitter, s.cfg.Rates[1].PPS)
	hopVars := make([]float64, len(s.cfg.Hops))
	for i, h := range s.cfg.Hops {
		hopVars[i] = netem.MD1WaitVar(h.Util.At(hour), h.service())
	}
	return analytic.RWithNetwork(varL, varH, hopVars)
}

// TheoreticalDetectionRate evaluates the paper's closed-form prediction
// for this system at the given feature, sample size, and hour of day.
func (s *System) TheoreticalDetectionRate(f analytic.Feature, n int, hour float64) (float64, error) {
	r, err := s.ModelR(hour)
	if err != nil {
		return 0, err
	}
	return analytic.DetectionRate(f, r, n)
}

// DesignVIT solves the paper's design guideline analytically: the
// smallest σ_T capping the adversary's detection rate at target when they
// use feature f with sample size n and tap the gateway output directly
// (the paper's worst case for the defender). Two-class systems only.
//
// The closed-form theorems model both classes as Gaussians that differ
// only in variance. The mechanistic gateway's blocking delays also differ
// in *shape* between classes, which a KDE-trained entropy attacker can
// exploit beyond the theorems' prediction, so treat this value as a lower
// bound and confirm with CalibrateVIT (empirical) before deployment.
func (s *System) DesignVIT(f analytic.Feature, target float64, n int) (float64, error) {
	if len(s.cfg.Rates) != 2 {
		return 0, errors.New("core: DesignVIT requires exactly two rates")
	}
	cit, err := gateway.NewCIT(s.cfg.Tau)
	if err != nil {
		return 0, err
	}
	varL := gateway.PIATVar(cit, s.cfg.Jitter, s.cfg.Rates[0].PPS)
	varH := gateway.PIATVar(cit, s.cfg.Jitter, s.cfg.Rates[1].PPS)
	return analytic.SigmaTForTarget(f, target, n, varL, varH)
}

// CalibrateVIT empirically searches for the smallest σ_T that caps the
// simulated adversary's detection rate at target, starting from the
// analytic DesignVIT value and doubling/bisecting on σ_T. attack
// configures the simulated adversary (its Feature and WindowSize define
// the threat), and every attack runs at the opts.Workers width. The
// returned σ_T satisfies the target up to the Monte Carlo resolution of
// the attack configuration. Two-class systems only. ctx reaches every
// attack set the search runs; once it is done, the calibration fails
// with an error wrapping its cause.
func (s *System) CalibrateVIT(ctx context.Context, target float64, attack AttackConfig, opts RunOptions) (float64, error) {
	if !(target > 0.5 && target < 1) {
		return 0, errors.New("core: target detection rate must be in (0.5, 1)")
	}
	attack = attack.withDefaults()
	base, err := s.DesignVIT(attack.Feature, target, attack.WindowSize)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		// Analytics say CIT is already safe; verify empirically and be
		// done, otherwise fall through to the search from a small seed
		// value.
		v, err := s.detectionAt(ctx, 0, attack, opts)
		if err != nil {
			return 0, err
		}
		if v <= target {
			return 0, nil
		}
		base = s.cfg.Tau * 1e-4
	}
	lo, hi := 0.0, base
	v, err := s.detectionAt(ctx, hi, attack, opts)
	if err != nil {
		return 0, err
	}
	for i := 0; v > target && i < 12; i++ {
		lo = hi
		hi *= 2
		v, err = s.detectionAt(ctx, hi, attack, opts)
		if err != nil {
			return 0, err
		}
	}
	if v > target {
		return 0, errors.New("core: calibration failed to reach target detection rate")
	}
	for i := 0; i < 8; i++ {
		mid := (lo + hi) / 2
		v, err = s.detectionAt(ctx, mid, attack, opts)
		if err != nil {
			return 0, err
		}
		if v <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// detectionAt measures the attack's detection rate against this system
// with SigmaT overridden.
func (s *System) detectionAt(ctx context.Context, sigmaT float64, attack AttackConfig, opts RunOptions) (float64, error) {
	cfg := s.cfg
	cfg.SigmaT = sigmaT
	sys, err := NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	set, err := sys.attackSet(ctx, attack, []analytic.Feature{attack.Feature}, opts)
	if err != nil {
		return 0, err
	}
	return set[0].DetectionRate, nil
}

// defaultFeatureWindow is the PIAT count the flow, cascade and active
// attacks reduce to one exit feature value: always for population flows,
// and for cascades and watermarked flows whose config leaves
// FeatureWindow zero.
const defaultFeatureWindow = 200

// trainExitClassifiers runs the shared off-line phase of the population,
// cascade and active correlation attacks: per class, reduce trainWindows
// phantom observations — source builds observation w of a class, a fresh
// realization drawn from the protocol's disjoint phantom index block, so
// training observes cover traffic, batching and re-padding exactly as
// run time does without sharing realizations with the observed flows —
// to one value per feature, then train one KDE classifier per feature.
// It returns the run-time attack configuration: duration, the feature
// window, workers, and the classifiers with the extractors that
// parallel them (both nil when features is empty).
func (s *System) trainExitClassifiers(ctx context.Context, features []analytic.Feature, trainWindows, featureWindow int, duration float64, workers int,
	source func(class, w int) (adversary.PIATSource, error)) (adversary.CorrConfig, error) {
	corr := adversary.CorrConfig{Duration: duration, FeatureWindow: featureWindow, Workers: workers}
	if len(features) == 0 {
		return corr, nil
	}
	exts := make([]adversary.Extractor, len(features))
	for i, f := range features {
		exts[i] = adversary.Extractor{Feature: f}
	}
	m := len(s.cfg.Rates)
	labels := s.Labels()
	trainMats := make([][][]float64, m)
	for c := 0; c < m; c++ {
		factory := func(w int) (adversary.PIATSource, error) {
			if err := context.Cause(ctx); err != nil {
				return nil, err
			}
			return source(c, w)
		}
		mat, err := adversary.FeatureMatrix(factory, exts,
			trainWindows, featureWindow, workers)
		if err != nil {
			return corr, fmt.Errorf("core: training class %q: %w", labels[c], err)
		}
		trainMats[c] = mat
	}
	classifiers, err := adversary.Fit(labels, trainMats, false)
	if err != nil {
		return corr, err
	}
	corr.Classifiers, corr.Extractors = classifiers, exts
	return corr, nil
}
