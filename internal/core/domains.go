package core

// Stream-ID domains.
//
// Every stream a System hands out is derived from (seed, class, streamID)
// via streamSeed, so the streamID space is the only thing keeping the
// observation protocols apart: two equal IDs observe the *identical*
// realization. This file is the single registry of how that 64-bit space
// is carved up. Each protocol owns one domain, selected by the top bits,
// and spreads its internal structure across the bits below; the
// cross-domain collision test (domains_test.go) enforces that the domains
// stay disjoint.
//
//	bit 63         bit 62           bit 61       bits 32..60           bits 0..31
//	session flag   population flag  active flag  window/session index  phase base / user+role
//
// The two top flag bits select four disjoint passive domains, and the
// active flag (bit 61) carves a fifth domain out of the replica range
// for the active-adversary protocol:
//
//	bits 63,62,61   domain
//	0 0 0           replica (i.i.d. windows)
//	1 0 0           session (continuous streams)
//	0 1 0           population (multi-user mix)
//	1 1 0           cascade (multi-hop routes)
//	0 0 1           active (watermarked flows)
//
// Replica domain (bits 63..61 clear): the i.i.d.-window protocol.
// Phase base IDs are small integers in the low 32 bits (training 1,
// evaluation 2, diagnostics base+1000, padCost 99, ...); trial window w
// of base b reads stream windowStreamID(b, w) = b + (w+1)·2³², so window
// indices occupy bits 32 and up. The spreading reaches bit 61 — the
// active flag — at w+1 = 2²⁹, so window (and session) indices must stay
// below 2²⁹−1; real sweeps use at most tens of thousands.
//
// Session domain (bit 63 set): the continuous-stream protocol
// (core.Session). Session s of phase base b reads b + (s+1)·2³² with
// bit 63 ORed in, mirroring the replica spreading one domain over.
//
// Population domain (bit 62 set, bit 63 clear): the multi-user engine
// (core population entry points). User u's streams read
// populationStreamID(u, role): the user index occupies bits 8..39 and the
// low byte selects the role — the per-user payload process, cover
// process, recipient draws, and padded-link chain are disjoint streams of
// the same user. Population index spreading therefore never reaches
// bit 62 (user indices are bounded far below 2³²), and the flag keeps the
// domain disjoint from both protocols above.
//
// Cascade domain (bits 63 and 62 both set): the multi-hop route engine
// (core cascade entry points). Flow f's streams read
// cascadeStreamID(f, hop, role): the flow index occupies bits 16..47, the
// hop index bits 8..15, and the low byte selects the role — the flow's
// payload process, each hop's padding stage (timer phase, policy,
// jitter), and the exit observation chain are disjoint streams of the same
// flow. Flow indices (phantom training flows included, base 2²⁴) stay far
// below 2³², so the spreading never reaches bit 62, and the two-bit flag
// keeps the domain disjoint from all three protocols above.
//
// Active domain (bit 61 set, bits 63..62 clear): the active-adversary
// watermark engine (core active entry points). Flow f's streams read
// activeStreamID(proto, f, hop, role): the scenario protocol occupies
// bits 52..53 (the same flow index under two protocols is a different
// realization), the flow index bits 16..47, the hop index bits 8..15,
// and the low byte selects the role — the flow's payload process,
// watermark key material, chaff stream, cover stream, padding chain and
// exit observation chain are disjoint streams of the same flow, and the
// adversary's decoy keys read their own role under flow = decoy index.
// Flow spreading stays inside bits 16..47, far below both the protocol
// field and the flag bits, so the domain is disjoint from all four
// protocols above.
const (
	// sessionDomain tags the stream IDs of continuous sessions (bit 63).
	sessionDomain = uint64(1) << 63
	// populationDomain tags the stream IDs of population users (bit 62).
	populationDomain = uint64(1) << 62
	// cascadeDomain tags the stream IDs of cascade flows (bits 63+62).
	cascadeDomain = sessionDomain | populationDomain
	// activeDomain tags the stream IDs of active watermarked flows
	// (bit 61).
	activeDomain = uint64(1) << 61
)

// Population role sub-streams within one user's ID block (low byte of the
// stream ID). Every stochastic element a user owns reads its own role
// stream, so the engine can build them independently and in any order.
const (
	// popRolePayload drives the user's real message arrivals.
	popRolePayload = iota
	// popRoleCover drives the user's cover (dummy) arrivals.
	popRoleCover
	// popRoleProfile draws the user's recipient profile and per-message
	// recipient choices.
	popRoleProfile
	// popRoleLink drives the user's padded-link chain (gateway jitter,
	// timer policy, network path) for per-flow observations.
	popRoleLink
	// popRoleChurn drives the user's presence (join/leave) schedule under
	// population churn. The schedule is a pure function of this stream,
	// which is what lets checkpoint/resume rebuild it without serializing
	// any schedule state.
	popRoleChurn
	// popRoleTap drives the adversary's ingress-tap impairment for the
	// user's flow (per-flow observations only; the round-based engine has
	// no packet-level ingress tap).
	popRoleTap
	// popRoleMix seeds the pool mix's retention stream for disclosure
	// runs over this population. The mix is population-global, not
	// per-user, so the role is read at user index 0 (class 0) — a slot no
	// other element occupies, since user 0's own roles stop at popRoleTap.
	popRoleMix
)

// windowStreamID derives the stream replica ID for trial window w of the
// given phase base ID. Spreading windows across the high bits keeps them
// disjoint from the phase bases (small integers) and the diagnostics
// streams (base+1000), so every trial sees an independent realization of
// the system — which is what makes trial-level parallelism reproducible:
// window w's feature depends only on (seed, class, w), never on worker
// scheduling.
func windowStreamID(base uint64, w int) uint64 {
	return base + (uint64(w)+1)<<32
}

// populationStreamID derives the stream ID of one role stream of
// population user u. The population flag keeps the whole block disjoint
// from the replica and session protocols; the user index and role keep
// users and their internal elements disjoint from each other.
func populationStreamID(user int, role uint64) uint64 {
	return populationDomain | uint64(user)<<8 | role
}

// Cascade role sub-streams within one (flow, hop) ID block (low byte of
// the stream ID). Hop-independent roles (the flow's payload arrivals)
// read hop 0; the exit observation chain reads one hop past the last.
const (
	// cascadeRolePayload drives the flow's payload arrivals (hop 0 only).
	cascadeRolePayload = iota
	// cascadeRoleHop drives one hop's padding stage: timer phase, policy
	// randomness and gateway jitter.
	cascadeRoleHop
	// cascadeRoleExit drives the exit observation chain (the system-level
	// network path and tap imperfections past the last hop).
	cascadeRoleExit
	// cascadeRoleEntryTap drives the adversary's entry-recorder impairment
	// (hop 0 only).
	cascadeRoleEntryTap
)

// cascadeStreamID derives the stream ID of one role stream of cascade
// flow f at the given hop. The two-bit cascade flag keeps the block
// disjoint from every other protocol; the flow, hop and role fields keep
// flows, hops and their internal elements disjoint from each other.
func cascadeStreamID(flow, hop int, role uint64) uint64 {
	return cascadeDomain | uint64(flow)<<16 | uint64(hop)<<8 | role
}

// Active role sub-streams within one (flow, hop) ID block (low byte of
// the stream ID). Hop-independent roles read hop 0; the exit observation
// chain reads one hop past the last padded element.
const (
	// activeRolePayload drives the flow's payload arrivals (hop 0 only).
	activeRolePayload = iota
	// activeRoleKey derives the flow's watermark key material — the
	// (seed, class, flowID, role) derivation that keeps keys independent
	// of worker scheduling.
	activeRoleKey
	// activeRoleChaff drives the attacker's chaff arrival process.
	activeRoleChaff
	// activeRoleCover drives the defense's cover (dummy payload) process.
	activeRoleCover
	// activeRoleHop drives one cascade hop's padding stage.
	activeRoleHop
	// activeRoleLink drives the single padded link (gateway or mix plus
	// the observation chain) of the non-cascade protocols.
	activeRoleLink
	// activeRoleExit drives the exit observation chain of cascade flows.
	activeRoleExit
	// activeRoleDecoy derives the adversary's decoy keys (flow = decoy
	// index, class 0).
	activeRoleDecoy
)

// activeStreamID derives the stream ID of one role stream of active
// flow f at the given hop under scenario protocol proto. The active
// flag keeps the block disjoint from every passive protocol; the
// protocol, flow, hop and role fields keep scenarios, flows, hops and
// their internal elements disjoint from each other.
func activeStreamID(proto ActiveProtocol, flow, hop int, role uint64) uint64 {
	return activeDomain | uint64(proto)<<52 | uint64(flow)<<16 | uint64(hop)<<8 | role
}
