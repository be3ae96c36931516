// Package core assembles the paper's complete system (Fig. 1): protected
// payload sources feeding a link-padding sender gateway, an unprotected
// network path of routers carrying crossover traffic, and an adversary
// tap whose observations drive the statistical traffic-analysis attack.
// A System is a declarative description (Config) validated once; every
// run method derives what it needs from the description, so one System
// answers attack, theory and design questions consistently.
//
// Five observation scenarios are layered on the same description, all
// run through one entry API (System.Build a Spec, then Scenario.Run;
// scenario.go), with lower-level constructors for custom studies:
//
//   - replica (AttackSetSpec): i.i.d. padded windows from a cold start,
//     the paper's original protocol;
//   - session (SessionAttackSpec; NewSession, TrainSessionAttack): one
//     continuous padded timeline per class whose layers carry state
//     across consecutive windows, with anytime (SPRT-style) decisions;
//   - population (DisclosureSpec, FlowCorrelationSpec; NewPopulation):
//     N heterogeneous senders share the padded infrastructure against a
//     global passive adversary;
//   - cascade (CascadeCorrelationSpec; NewCascade): flows cross routes
//     of K re-padding hops, observed end to end;
//   - active (ActiveDetectionSpec; NewActive): an attacker injects keyed
//     delay/chaff watermarks into the payload before the countermeasure
//     and re-detects them at the exit tap, across any of the four
//     protocols above.
//
// The parameters the paper fixes and no study varies — the population's
// contact profile, the cascade mix batch, the watermark geometry, the
// attacks' stream bases and warm-ups — are named constants beside the
// code that reads them, not spec fields.
//
// Determinism contract: every stream the System hands out is an
// independent deterministic replica derived from (master seed, class,
// stream ID) — so the adversary's off-line training corpus (paper §3.3:
// "the adversary can simulate the whole system") and the run-time
// observations are distinct realizations of the same system, exactly the
// paper's threat model. Stream IDs are partitioned into per-protocol
// domains (domains.go, collision-tested), replicas/sessions/users/flows
// are the units of parallelism, and every result is byte-identical at
// any worker count.
//
// Allocation discipline: the classification hot path is allocation-free
// in steady state — windows are simulated once and reduced through every
// feature extractor in one streaming pass (adversary.MultiPipeline),
// with per-worker buffers reused across trials.
package core
