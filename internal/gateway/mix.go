package gateway

import (
	"errors"

	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Mix implements the Chaum-style batching proxy from the paper's related
// work (§2, ref. [3]): it collects K payload packets, then flushes them
// as one back-to-back burst (the shuffle is irrelevant to timing
// analysis). No dummies are sent and no timer runs, so the scheme costs
// no padding bandwidth — and leaks the payload rate at first order: the
// inter-burst gap is the time to collect K packets, i.e. Erlang(K, λ),
// whose mean K/λ is inversely proportional to the rate. The paper's §2
// notes that mixes need dummy traffic for exactly this reason.
//
// Mix produces the padded-stream departure process via Next, like
// Gateway, so it plugs into the same network path and adversary.
type Mix struct {
	k       int
	spacing float64
	payload traffic.Source
	jitter  JitterModel
	rng     *xrand.Rand
	tap     func(t float64)
	probe   *obs.Shard

	nextArrival float64
	pending     int       // packets of the current burst still to emit
	batch       []float64 // arrival times of the current burst's packets
	burstStart  float64
	lastOut     float64
	started     bool

	bursts   uint64
	packets  uint64
	delaySum float64
	delayMax float64
}

// MixConfig assembles a Mix.
type MixConfig struct {
	// K is the batch size (Chaum's parameter); at least 2.
	K int
	// SendSpacing is the wire spacing of packets within a flushed burst
	// (one service time on the outgoing link).
	SendSpacing float64
	// Payload is the incoming payload process (required).
	Payload traffic.Source
	// Jitter perturbs each send with the host's OS noise.
	Jitter JitterModel
	// RNG drives the jitter (required).
	RNG *xrand.Rand
	// ArrivalTap, when non-nil, observes the absolute arrival time of
	// every payload packet reaching the mix — the ingress side of a
	// global passive adversary, mirroring gateway.Config.ArrivalTap.
	ArrivalTap func(t float64)
	// Probe, when non-nil, is the chain's telemetry shard; the mix
	// counts payload arrivals, flushed bursts and emitted packets into
	// it. Nil disables counting.
	Probe *obs.Shard
}

// NewMix creates a mix.
func NewMix(cfg MixConfig) (*Mix, error) {
	if cfg.K < 2 {
		return nil, errors.New("gateway: mix batch size must be at least 2")
	}
	if !(cfg.SendSpacing > 0) {
		return nil, errors.New("gateway: mix send spacing must be positive")
	}
	if cfg.Payload == nil {
		return nil, errors.New("gateway: mix needs a payload source")
	}
	if cfg.RNG == nil {
		return nil, errors.New("gateway: mix needs an rng")
	}
	if err := cfg.Jitter.Validate(); err != nil {
		return nil, err
	}
	return &Mix{
		k:       cfg.K,
		spacing: cfg.SendSpacing,
		payload: cfg.Payload,
		jitter:  cfg.Jitter,
		rng:     cfg.RNG,
		tap:     cfg.ArrivalTap,
		probe:   cfg.Probe,
	}, nil
}

// Next returns the departure time of the next packet: bursts of K packets
// spaced SendSpacing apart, started once the K-th packet of a batch has
// arrived. Departures are strictly increasing.
func (m *Mix) Next() float64 {
	if !m.started {
		m.started = true
		m.nextArrival = m.payload.Next()
	}
	if m.pending == 0 {
		// Collect the next K arrivals; the burst begins at the K-th.
		m.batch = m.batch[:0]
		for i := 0; i < m.k; i++ {
			m.burstStart = m.nextArrival
			m.batch = append(m.batch, m.nextArrival)
			if m.tap != nil {
				m.tap(m.nextArrival)
			}
			m.nextArrival += m.payload.Next()
		}
		m.pending = m.k
		m.bursts++
		m.probe.Add(obs.TrafficPayload, uint64(m.k))
		m.probe.Inc(obs.MixFlush)
	}
	idx := m.k - m.pending
	m.pending--
	out := m.burstStart + float64(idx)*m.spacing + m.jitter.Delay(0, m.rng)
	if out <= m.lastOut {
		out = m.lastOut + minSpacing
	}
	m.lastOut = out
	m.packets++
	m.probe.Inc(obs.MixPacket)
	delay := out - m.batch[idx]
	m.delaySum += delay
	if delay > m.delayMax {
		m.delayMax = delay
	}
	return out
}

// MeanDelay returns the average time packets spent waiting in the mix
// (departure − arrival), the QoS cost of batching.
func (m *Mix) MeanDelay() float64 {
	if m.packets == 0 {
		return 0
	}
	return m.delaySum / float64(m.packets)
}

// MaxDelay returns the largest observed packet delay.
func (m *Mix) MaxDelay() float64 { return m.delayMax }

// Packets returns the number of packets emitted so far.
func (m *Mix) Packets() uint64 { return m.packets }
