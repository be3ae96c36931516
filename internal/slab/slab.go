// Package slab defines the shared batched-event representation of the
// simulator: a struct-of-arrays block of packet events — flat float64
// timestamps plus compact per-packet flags — generated, transformed and
// consumed a few thousand events per call instead of one event per
// virtual call.
//
// The slab layout is deliberately minimal. Timestamps are what every
// layer (gateway, routers, impairments, taps, feature extractors)
// computes on, so they live in a dense []float64 that vectorizes and
// bounds-check-eliminates well; per-packet metadata the adversary never
// sees (today: the dummy/payload bit at the gateway) rides in a parallel
// []uint8 so the hot timestamp loops stay untouched by it.
//
// Determinism contract: filling a slab of n events draws exactly the
// variates that n single-event calls would draw, in the same order —
// batching changes the call granularity, never the stream. In the
// gateway and the network elements (gateway.Gateway.NextSlab,
// netem.BatchStream) the batch is the only body and a single-event call
// is a batch of one; traffic.Model.NextBatch, whose kinds keep Next as
// their body, is property-tested against Next for bit equality.
package slab

// DefaultLen is the default number of events per slab: large enough to
// amortize per-call overhead to noise, small enough that a slab of
// timestamps (32 KiB) stays cache-resident through a layer's transform.
const DefaultLen = 4096

// Per-packet flag bits.
const (
	// FlagDummy marks a padding dummy (no payload inside); the gateway
	// sets it, ground-truth consumers read it, the adversary never does.
	FlagDummy uint8 = 1 << 0
)

// Slab is one struct-of-arrays block of packet events. Times and Flags
// are parallel: Flags[i] describes the packet at Times[i]. Flags may be
// nil when no producer in the chain emits metadata.
type Slab struct {
	Times []float64
	Flags []uint8
}

// New returns a slab with capacity n and length 0.
func New(n int) *Slab {
	return &Slab{
		Times: make([]float64, 0, n),
		Flags: make([]uint8, 0, n),
	}
}

// Grow sets the slab's length to n (n must not exceed the capacity it
// was built with unless reallocation is acceptable), so producers can
// fill s.Times[:n]/s.Flags[:n] in place.
func (s *Slab) Grow(n int) {
	if cap(s.Times) < n {
		s.Times = make([]float64, n)
		s.Flags = make([]uint8, n)
		return
	}
	s.Times = s.Times[:n]
	s.Flags = s.Flags[:n]
}
