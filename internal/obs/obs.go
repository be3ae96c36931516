// Package obs is the simulator's flight recorder: deterministic
// per-layer event counters that every simulation layer reports into,
// plus coarse progress gauges the CLI's live reporters read while a run
// is in flight.
//
// The substrate is two-level. The hot path — the per-packet loops of
// the gateway, the network elements and the population engine — writes
// into a Shard: a plain (non-atomic) counter block owned by exactly one
// goroutine, typically created per observation chain or per engine, so
// hot-path accounting is a predicted branch and an integer add, never
// an atomic operation. At coarse boundaries (a PIAT slab, a mix round,
// a finished flow) the owner drains its shard into the global Collector
// with Flush, which is the only place atomics are touched; live readers
// (the progress line and the run-report writer) read
// only the Collector and therefore never race with a working shard.
//
// Determinism contract — the property that makes telemetry safe to
// leave wired into every layer:
//
//   - counters never draw randomness and never feed back into the
//     simulation, so enabling or disabling collection cannot change any
//     emitted stream or table (the golden tables are byte-identical
//     either way, enforced by tests);
//   - a disabled probe is a nil *Shard, whose methods are no-ops, so
//     the disabled hot path stays allocation-free (AllocsPerRun = 0 on
//     the slab paths, enforced by tests);
//   - every counter is a sum of per-chain deterministic event counts,
//     and shards are drained at chain-local boundaries, so enabled
//     totals are invariant under the worker count (wall-clock time
//     lives only in the progress gauges, never in the counters).
package obs

import "sync/atomic"

// Counter identifies one deterministic event counter.
type Counter int

// The counter inventory. Every simulation layer reports its per-event
// activity under one of these; names (see Name) key the run report's
// JSON counter map.
const (
	// GatewayPayload counts padded packets carrying payload (timer
	// gateways).
	GatewayPayload Counter = iota
	// GatewayDummy counts dummy padded packets (timer gateways).
	GatewayDummy
	// GatewayStall counts timer fires whose interrupt was delayed by at
	// least one blocking payload arrival (the paper's compound jitter
	// term actually engaging).
	GatewayStall
	// MixFlush counts flushed batch-of-K mix bursts.
	MixFlush
	// MixPacket counts packets emitted by mix stages.
	MixPacket
	// TrafficPayload counts payload packets arriving at a padding stage
	// (gateway or mix ingress; cover and chaff merged upstream of the
	// stage are included — the stage cannot tell them apart, which is
	// the point of cover).
	TrafficPayload
	// TrafficCover counts population cover (dummy) messages entering
	// mix rounds.
	TrafficCover
	// NetemDrop counts packets lost in flight or missed by a capture
	// (impairment loss, tap loss, impaired ingress-tap loss).
	NetemDrop
	// NetemDup counts packets duplicated by an impairment.
	NetemDup
	// NetemReorder counts packets held back for reordered release.
	NetemReorder
	// PopulationRound counts emitted threshold-mix rounds.
	PopulationRound
	// PopulationMessage counts real (payload) messages entering rounds.
	PopulationMessage
	// PopulationActiveUser counts users contributing at least one event
	// to a generation slab (under churn this tracks the online
	// sub-population).
	PopulationActiveUser
	// AdvWindow counts feature windows the adversary extracted.
	AdvWindow
	// AdvSlab counts PIAT slabs the adversary pulled through the
	// batched extraction path.
	AdvSlab
	// ExperimentCell counts finished sweep cells of cell experiments.
	ExperimentCell

	// NumCounters is the size of the counter space.
	NumCounters
)

// counterNames keys the JSON counter map; index-parallel to the enum.
var counterNames = [NumCounters]string{
	"gateway_payload",
	"gateway_dummy",
	"gateway_stall",
	"mix_flush",
	"mix_packet",
	"traffic_payload",
	"traffic_cover",
	"netem_drop",
	"netem_dup",
	"netem_reorder",
	"population_round",
	"population_message",
	"population_active_user",
	"adv_window",
	"adv_slab",
	"experiment_cell",
}

// Name returns the counter's stable report key.
func (c Counter) Name() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Shard is a single-owner counter block: the hot-path half of the
// substrate. All methods are nil-safe no-ops, so a disabled probe costs
// one predicted branch per event and allocates nothing. A Shard must
// only ever be written by one goroutine at a time (the chain or engine
// that owns it); Flush publishes and zeroes it.
type Shard struct {
	c [NumCounters]uint64
}

// Add accumulates n events of counter c.
func (s *Shard) Add(c Counter, n uint64) {
	if s != nil {
		s.c[c] += n
	}
}

// Inc accumulates one event of counter c.
func (s *Shard) Inc(c Counter) {
	if s != nil {
		s.c[c]++
	}
}

// Flush drains the shard into the global collector and zeroes it. Safe
// to call repeatedly (a drained shard flushes nothing) and on nil.
func (s *Shard) Flush() {
	if s == nil {
		return
	}
	for i := range s.c {
		if n := s.c[i]; n != 0 {
			Default.c[i].Add(n)
			s.c[i] = 0
		}
	}
}

// Flusher is implemented by stream elements that carry a chain's shard
// (netem.Differ); batched consumers assert it and drain after each
// slab, so chain counters become visible at slab granularity.
type Flusher interface {
	FlushObs()
}

// Collector aggregates flushed shards into atomic totals, plus the
// non-deterministic progress gauges. The zero value is ready for use
// and disabled.
type Collector struct {
	enabled atomic.Bool
	c       [NumCounters]atomic.Uint64

	// Progress gauges: wall-clock-coupled run state for the live
	// reporters. Deliberately separate from the counters so the
	// deterministic snapshot never contains timing.
	expsTotal  atomic.Int64
	expsDone   atomic.Int64
	cellsTotal atomic.Int64
	cellsDone  atomic.Int64
}

// Default is the process-global collector every layer reports into.
var Default = &Collector{}

// SetEnabled switches collection on or off (default off). Layers built
// while disabled get nil shards and count nothing; flipping the switch
// does not retroactively instrument already-built chains.
func SetEnabled(on bool) { Default.enabled.Store(on) }

// Enabled reports whether collection is on.
func Enabled() bool { return Default.enabled.Load() }

// NewShard returns a fresh shard for one chain or engine, or nil when
// collection is disabled — the nil shard is the zero-cost disabled
// probe.
func NewShard() *Shard {
	if !Enabled() {
		return nil
	}
	return &Shard{}
}

// Count adds n events of counter c directly to the global totals —
// for coarse-grained events (a finished window, a pulled slab, a swept
// cell) that have no natural shard owner. A no-op while disabled.
func Count(c Counter, n uint64) {
	if Enabled() {
		Default.c[c].Add(n)
	}
}

// Snapshot copies the current counter totals. The snapshot is a pure
// function of the simulated work that has been flushed, never of
// wall-clock time or worker count.
func Snapshot() [NumCounters]uint64 {
	var out [NumCounters]uint64
	for i := range out {
		out[i] = Default.c[i].Load()
	}
	return out
}

// Reset zeroes the counters and progress gauges (tests and the CLI's
// per-run setup).
func Reset() {
	for i := range Default.c {
		Default.c[i].Store(0)
	}
	Default.expsTotal.Store(0)
	Default.expsDone.Store(0)
	Default.cellsTotal.Store(0)
	Default.cellsDone.Store(0)
}

// Packets returns the total padded packets emitted across all padding
// stages in a snapshot — the throughput numerator of the run report.
func Packets(s [NumCounters]uint64) uint64 {
	return s[GatewayPayload] + s[GatewayDummy] + s[MixPacket]
}

// Progress is one reading of the live gauges.
type Progress struct {
	ExpsTotal, ExpsDone   int64
	CellsTotal, CellsDone int64
}

// ReadProgress samples the progress gauges.
func ReadProgress() Progress {
	return Progress{
		ExpsTotal:  Default.expsTotal.Load(),
		ExpsDone:   Default.expsDone.Load(),
		CellsTotal: Default.cellsTotal.Load(),
		CellsDone:  Default.cellsDone.Load(),
	}
}

// AddExperiments grows the planned-experiment gauge.
func AddExperiments(n int) { Default.expsTotal.Add(int64(n)) }

// ExperimentDone advances the finished-experiment gauge.
func ExperimentDone() { Default.expsDone.Add(1) }

// AddCells grows the planned-cell gauge (a cell experiment announcing
// its sweep size; resumed runs announce only the cells left to run).
func AddCells(n int) { Default.cellsTotal.Add(int64(n)) }

// CellDone advances the finished-cell gauge and the deterministic cell
// counter.
func CellDone() {
	Default.cellsDone.Add(1)
	Count(ExperimentCell, 1)
}
