// Package population scales the study from one sender to a population:
// N heterogeneous senders (per-user rate classes and recipient profiles)
// share a padded infrastructure, and a global passive adversary who taps
// both the ingress side (per-user send activity) and the egress side
// (batched deliveries, padded flows) tries to disentangle whose traffic
// is whose. The engine carries the round-based statistical disclosure
// attack (Danezis' SDA, and its refinements in Emamdoost et al.,
// "Statistical Disclosure: Improved, Extended, and Resisted"): estimate
// a target user's recipient distribution by contrasting batch rounds in
// which the target sent against rounds in which they did not (sda.go).
// The other population-scale attack, per-flow correlation by throughput
// fingerprinting (Mittal et al., "Stealthy Traffic Analysis of
// Low-Latency Anonymous Communication Using Throughput Fingerprinting")
// combined with the paper's PIAT class features, needs no engine: it is
// adversary.CorrelateFlows, which cascades share, fed one padded user
// link per flow by core.
//
// The engine follows the repository's determinism discipline: every
// user's randomness — message arrivals, cover arrivals, recipient
// draws — is a private deterministic stream (core derives it from
// (seed, class, userID) in the population stream domain), so per-user
// generation parallelizes to any worker count with byte-identical
// results.
//
// Scale architecture (million-user populations): users are partitioned
// into fixed cache-sized shards. Each generation slab extends every
// shard's event horizon in parallel and sorts the shard's events by
// (time, user); the global round stream is then a streaming k-way
// reduction — an index min-heap over the shard frontiers — that replays
// exactly the total (time, user) order the previous concat-and-sort
// merge produced. Users are materialized lazily: a cold user holds only
// its cursor (pending arrival time and origin, and its arena slot, 16
// bytes), which the init pass fills from the pure per-user Builder's
// Frontier without building the user, and its full state is built by
// Builder.Build the first time it actually sends. A warm user lives in
// its shard's arena: a fixed-size slot, handed out in warming order from
// pointer-free chunks, holding its payload and cover by value
// (traffic.Model) merged in a traffic.Pair, and its recipient stream;
// its contact set is a run in the arena's int32 chunks. Warming a user
// allocates nothing but its share of a chunk, and the collector never
// scans a chunk. Resident memory is thus dominated by the cursors plus
// the users active so far, not by N fully built source stacks, and the
// init pass costs one frontier read per user rather than one build. A
// refill touches only the users that are due:
// a per-block minimum of the frontier lets it skip every 16-user block
// with nothing before the new horizon. With more than one worker the
// next slab generates in the background while the current one is
// merged (see refill). The round loop is allocation-free in steady
// state.
package population

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"linkpad/internal/obs"
	"linkpad/internal/par"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// ProfileShape is a user's recipient distribution, all but its contact
// set: a small contact set carrying most of the probability mass
// (Zipf-weighted, so the first contact is the heaviest) over a uniform
// background across all recipients. This is the structure statistical
// disclosure exploits, and what "disclosure" means: identifying the
// contact set. A population's users share one shape, which holds the
// recipient space, the contact-set size and mass, and the Zipf weights
// within the set; each user owns only its contact set, which the engine
// draws from the user's stream into its arena.
type ProfileShape struct {
	cum    []float64
	weight float64
	nrcpt  int32
}

// NewProfileShape validates a profile shape with the given number of
// distinct contacts among `recipients` possible recipients, placing
// `weight` of the probability mass on the contact set (Zipf-weighted
// within it) and the rest uniformly across all recipients.
func NewProfileShape(recipients, contacts int, weight float64) (*ProfileShape, error) {
	if recipients < 2 {
		return nil, errors.New("population: need at least two recipients")
	}
	if contacts < 1 || contacts > recipients/2 {
		return nil, fmt.Errorf("population: contacts %d out of range [1, %d]", contacts, recipients/2)
	}
	if !(weight > 0 && weight <= 1) {
		return nil, errors.New("population: contact weight must be in (0,1]")
	}
	cum := make([]float64, contacts)
	var tot float64
	for i := range cum {
		tot += 1 / float64(i+1)
		cum[i] = tot
	}
	for i := range cum {
		cum[i] /= tot
	}
	return &ProfileShape{cum: cum, weight: weight, nrcpt: int32(recipients)}, nil
}

// drawContacts fills cs, whose length is the shape's contact count,
// with a contact set drawn from rng: distinct recipients, heaviest
// first.
func (s *ProfileShape) drawContacts(rng *xrand.Stream, cs []int32) {
	for n := 0; n < len(cs); {
		c := int32(rng.Intn(int(s.nrcpt)))
		if !slices.Contains(cs[:n], c) {
			cs[n] = c
			n++
		}
	}
}

// draw picks one recipient of a real message from a user with contact
// set contacts, using rng.
func (s *ProfileShape) draw(contacts []int32, rng *xrand.Stream) int32 {
	u := rng.Float64()
	if u < s.weight {
		// Reuse the uniform: u/weight is uniform in [0,1) given u < weight.
		v := u / s.weight
		for i, c := range s.cum {
			if v < c {
				return contacts[i]
			}
		}
		return contacts[len(contacts)-1]
	}
	return int32(rng.Intn(int(s.nrcpt)))
}

// User is one sender of the population, as a Builder hands it over. Its
// stochastic elements — message arrivals, optional cover arrivals, the
// contact set and the recipient draws — must be private to the user
// (never shared), which is what lets the engine generate users in
// parallel deterministically. A User holds its sources and its stream by
// value, and the engine copies them into its pointer-free arena.
type User struct {
	// Class is the user's payload-rate class index.
	Class int
	// Messages is the user's real message arrival process; it must not
	// be the zero Model.
	Messages traffic.Model
	// Cover is the user's dummy arrival process; the zero Model means no
	// cover traffic. Cover messages are indistinguishable from real ones
	// at the ingress tap and are delivered to uniformly random recipients.
	Cover traffic.Model
	// Shape is the user's recipient distribution for real messages, all
	// but its contact set.
	Shape *ProfileShape
	// RNG is the user's profile stream. The engine draws the user's
	// contact set from it first, when it installs the user, and the same
	// stream then draws every recipient (real and dummy) in event order.
	RNG xrand.Stream
	// Presence, when non-nil, is the user's churn schedule: arrivals
	// (real and cover alike) that fall while the user is offline are
	// dropped — an offline client sends nothing. The schedule must be
	// private to the user, like every other stochastic element.
	Presence *traffic.OnOffSchedule
}

// Frontier is a cold user's generation cursor: the time of its first
// arrival, whether that arrival is a cover message, and the user's
// aggregate send rate (payload plus cover).
type Frontier struct {
	T     float64
	Cover bool
	Rate  float64
}

// Builder materializes users from their indices. Build returns the
// user by value and the engine copies it into its arena, so a user
// warms without an allocation of its own unless its builder makes one
// (core's makes only a churn schedule). A builder must be pure: calling
// Build twice with the same index must yield two identically seeded
// users (the repository's (seed, class, userID) stream derivation
// satisfies this by construction), and Frontier(u) must report, bit for
// bit, what a fresh Build(u) would yield first: the earlier of the
// payload's and the cover's first arrivals (a tie going to the payload,
// as the engine's merge breaks it) and the payload's rate plus the
// cover's, in that order. The engine reads every user's Frontier once at
// construction and calls Build only when a user first sends and for the
// read-only accessors; it checks the rebuilt first arrival against the
// recorded frontier and fails naming the user when they differ.
type Builder interface {
	Build(u int) (User, error)
	Frontier(u int) (Frontier, error)
}

// event is one message entering the shared infrastructure.
type event struct {
	t     float64
	user  int32
	rcpt  int32
	dummy bool
}

// eventSorter orders events by time, tie-breaking by user index so the
// merge is deterministic even in the (measure-zero) case of equal
// timestamps. Held by value on each shard so sorting allocates nothing.
type eventSorter struct{ ev []event }

func (s *eventSorter) Len() int      { return len(s.ev) }
func (s *eventSorter) Swap(i, j int) { s.ev[i], s.ev[j] = s.ev[j], s.ev[i] }
func (s *eventSorter) Less(i, j int) bool {
	if s.ev[i].t != s.ev[j].t {
		return s.ev[i].t < s.ev[j].t
	}
	return s.ev[i].user < s.ev[j].user
}

// slot is one warm user's state in its shard's arena: the merged stream
// of its sources, its recipient stream and where its class, shape and
// contact set are. A slot holds no pointers, so the collector never
// scans an arena chunk. Cold users have no slot: a user's generation
// cursor lives in the engine's cursors, warm or cold.
type slot struct {
	// merge is the user's payload (first) and cover (second, the zero
	// Model without cover) merged; its NextFrom reports a cover arrival
	// as the second source firing.
	merge traffic.Pair[traffic.Model, traffic.Model, *traffic.Model, *traffic.Model]
	rng   xrand.Stream
	class int32
	shape int32 // index into the arena's shapes
	// The contact set is chunk cc of the arena's contacts, from offset co.
	cc, co int32
}

// slotChunk is the slot count of one arena chunk: 16 slots of 144 B fill
// the 2304 B size class exactly. contactChunk is the int32 count of one
// contact chunk.
const (
	slotChunk    = 16
	contactChunk = 256
)

// warmArena is one shard's warm users. Slots are handed out in the order
// the shard's users warm, in fixed-size chunks, so the arena grows with
// the shard's warm users rather than its population, and a slot never
// moves. Contact sets are runs in fixed-size int32 chunks; a run never
// straddles two chunks. Neither kind of chunk holds a pointer, so warm
// users cost the collector nothing to mark; what it does scan is a
// pointer per chunk, the shard's distinct profile shapes, and the
// presence schedules, which exist only under churn.
type warmArena struct {
	slots    []*[slotChunk]slot
	n        int32 // slots handed out
	contacts [][]int32
	used     int // int32s handed out of the last contact chunk
	shapes   []*ProfileShape
	presence []*traffic.OnOffSchedule // by slot; nil until a user churns
}

// add hands out the next slot and its index.
func (a *warmArena) add() (int32, *slot) {
	i := a.n
	if i%slotChunk == 0 {
		a.slots = append(a.slots, new([slotChunk]slot))
	}
	a.n++
	return i, a.at(i)
}

// at returns slot i.
func (a *warmArena) at(i int32) *slot { return &a.slots[i/slotChunk][i%slotChunk] }

// addContacts hands out a run of k int32s for a contact set and records
// where it is in st.
func (a *warmArena) addContacts(st *slot, k int) []int32 {
	last := len(a.contacts) - 1
	if last < 0 || a.used+k > len(a.contacts[last]) {
		a.contacts = append(a.contacts, make([]int32, max(contactChunk, k)))
		last++
		a.used = 0
	}
	st.cc, st.co = int32(last), int32(a.used)
	a.used += k
	return a.contacts[last][st.co:a.used]
}

// contactsOf returns st's contact set.
func (a *warmArena) contactsOf(st *slot) []int32 {
	return a.contacts[st.cc][st.co : int(st.co)+len(a.shapes[st.shape].cum)]
}

// shapeIndex returns shape's index in the arena's shapes, adding it if
// it is new. A population shares one shape, so the scan is one compare.
func (a *warmArena) shapeIndex(shape *ProfileShape) int32 {
	for i, x := range a.shapes {
		if x == shape {
			return int32(i)
		}
	}
	a.shapes = append(a.shapes, shape)
	return int32(len(a.shapes) - 1)
}

// presenceOf returns slot i's churn schedule, nil if the user never
// churns.
func (a *warmArena) presenceOf(i int32) *traffic.OnOffSchedule {
	if int(i) < len(a.presence) {
		return a.presence[i]
	}
	return nil
}

// cursor is one user's generation cursor: the absolute time and origin
// of its pending arrival, and its slot in its shard's warm arena (−1
// while the user is cold). A refill reads all three for each due user,
// so they share a cache line; 16 bytes per user is the whole cost of a
// cold user.
type cursor struct {
	t     float64
	slot  int32
	cover bool
}

// shard is one contiguous user range's merge cursor: its slab of events,
// sorted by (t, user), and the position of the next one to merge.
type shard struct {
	buf []event
	pos int
}

// shardGen is one shard's generation state: the slab being generated
// (spare, and active, its count of users that emitted at least one
// event), a reusable sorter, so a refill allocates nothing beyond
// amortized buffer growth, and the arena of the shard's warm users. A
// refill swaps spare with the shard's merged buf. Generation writes only
// shardGen and the merge only shard, and the two live in separate
// arrays, so a pipelined engine generates the next slab while the
// current one is merged without either goroutine writing a cache line
// the other reads.
type shardGen struct {
	spare  []event
	active int
	sorter eventSorter
	warm   warmArena
}

// Round is one batch of the population mix as both sides of the
// adversary observe it: for each of the B messages, the sending user
// (ingress view), the delivered recipient (egress view), and the arrival
// time, in arrival order. Dummy is ground truth the adversary does not
// see; the attacks never read it. Times is observable metadata (the
// mix's flush clock) that churn-aware estimators use to check a target's
// presence. Flush is the instant the mix flushed the round: the last
// arrival for a threshold mix, the triggering arrival for a pool mix,
// the window boundary for a timed mix. A Round's slices are reused
// across NextRound calls.
type Round struct {
	Users []int32
	Rcpts []int32
	Dummy []bool
	Times []float64
	Flush float64
}

// Engine is a running multi-user simulation: per-user event streams
// merged into one time-ordered sequence and cut into mix rounds. Like
// the Source and Session types it is a stateful stream — one pass per
// engine; build a fresh engine per run. It is not safe for concurrent
// use, but its internal generation fans out across user shards on up to
// SetWorkers goroutines with byte-identical output at any width, and
// with more than one worker it generates the next slab in the
// background while the caller consumes rounds. Every method that reads
// engine state first waits for that generation.
type Engine struct {
	n     int
	nrcpt int
	build Builder // nil for an eagerly built engine

	// cur holds every user's cursor, cold users included; each
	// constructor writes all of them. A user warms on its first
	// generated event and stays warm.
	cur []cursor

	// blockMin[b] is the least pending time over block b's users. Blocks
	// are blockSize users, laid out shard by shard so that none straddles
	// a shard: shard sh owns blocks [sh*blocksPerShard,
	// (sh+1)*blocksPerShard).
	blockMin       []float64
	blocksPerShard int

	workers   int
	slabLen   float64
	slabEnd   float64 // horizon of the newest generated slab
	shardSize int
	shards    []shard
	gens      []shardGen
	heap      []head // the non-empty shards, min-heap by head event (t, user)

	// Pipelining (more than one worker): ahead is true while a slab
	// generated beyond the merged one is waiting to be consumed, running
	// while its generation is still in flight on a background goroutine,
	// which sends its result on done. join stores that result in genErr;
	// the refill that consumes the slab reports it.
	ahead, running bool
	done           chan error
	genErr         error

	rounds int
	probe  *obs.Shard
}

// targetSlabEvents sizes generation slabs: each parallel fan-out should
// produce about this many events so the merge cost amortizes.
const targetSlabEvents = 4096

// defaultShardSize is the user count per generation shard: small enough
// that a shard's frontier slice and slab buffer stay cache-resident,
// large enough that the per-shard fan-out overhead amortizes.
const defaultShardSize = 1024

// blockSize is the user count per frontier block. A refill reads one
// block minimum per blockSize users and visits a block's users only
// when the minimum lies before the new horizon; 16 cursors fill four
// cache lines.
const blockSize = 16

// NewLazyEngine assembles an engine over n users materialized on demand
// from a pure Builder. Construction makes one pass over the population
// (in parallel shards) that records each user's compact frontier — first
// arrival time, origin, aggregate rate — from Builder.Frontier, without
// building any user. A user's full state is built the first time it
// sends; users that never send within the observed horizon never hold
// source state at all, which is what keeps million-user populations
// resident-memory-cheap. Build errors therefore surface when a user
// warms (from NextRound, or as a panic from the read-only accessors), so
// a builder should validate its parameters before the engine is made.
func NewLazyEngine(n, recipients int, build Builder) (*Engine, error) {
	return newLazyEngine(n, recipients, defaultShardSize, build)
}

// newLazyEngine is NewLazyEngine with an explicit shard size (tests use
// small shards to exercise the multi-shard reduction on small N).
func newLazyEngine(n, recipients, shardSize int, build Builder) (*Engine, error) {
	if build == nil {
		return nil, errors.New("population: nil user builder")
	}
	e, err := newEngine(n, recipients, shardSize)
	if err != nil {
		return nil, err
	}
	e.build = build
	// Init pass: one parallel sweep over the shards records every user's
	// frontier without building it. Per-shard rate partials summed in
	// shard order keep the aggregate-rate float identical at any worker
	// count.
	nshards := e.numShards()
	partial := make([]float64, nshards)
	err = par.MapWorker(nshards, 0, func(_, sh int) error {
		lo, hi := e.shardRange(sh)
		var rate float64
		for u := lo; u < hi; u++ {
			f, err := build.Frontier(u)
			if err != nil {
				return fmt.Errorf("population: frontier of user %d: %w", u, err)
			}
			e.cur[u] = cursor{t: f.T, slot: -1, cover: f.Cover}
			rate += f.Rate
		}
		partial[sh] = rate
		return nil
	})
	if err != nil {
		return nil, err
	}
	var totalRate float64
	for _, r := range partial {
		totalRate += r
	}
	return e, e.finishInit(totalRate)
}

// newEngine allocates the cursors and the shards' generation state and
// validates the shape.
func newEngine(n, recipients, shardSize int) (*Engine, error) {
	if n < 2 {
		return nil, errors.New("population: need at least two users")
	}
	if recipients < 2 {
		return nil, errors.New("population: need at least two recipients")
	}
	if shardSize < 1 {
		return nil, errors.New("population: shard size must be positive")
	}
	e := &Engine{
		n:         n,
		nrcpt:     recipients,
		cur:       make([]cursor, n),
		shardSize: shardSize,
		probe:     obs.NewShard(),
		done:      make(chan error, 1),
	}
	e.gens = make([]shardGen, e.numShards())
	e.blocksPerShard = (min(shardSize, n) + blockSize - 1) / blockSize
	e.blockMin = make([]float64, e.numShards()*e.blocksPerShard)
	return e, nil
}

// finishInit derives the slab length from the population's aggregate
// rate and indexes the initial frontier by block.
func (e *Engine) finishInit(totalRate float64) error {
	if !(totalRate > 0) {
		return errors.New("population: population has zero aggregate rate")
	}
	e.slabLen = targetSlabEvents / totalRate
	for sh := 0; sh < e.numShards(); sh++ {
		lo, hi := e.shardRange(sh)
		for b := lo; b < hi; b += blockSize {
			e.indexBlock(sh, b)
		}
	}
	return nil
}

// indexBlock records the least frontier time of shard sh's block that
// starts at user b.
func (e *Engine) indexBlock(sh, b int) {
	lo, hi := e.shardRange(sh)
	m := math.Inf(1)
	for _, c := range e.cur[b:min(b+blockSize, hi)] {
		if c.t < m {
			m = c.t
		}
	}
	e.blockMin[sh*e.blocksPerShard+(b-lo)/blockSize] = m
}

// validateUser checks one user's shape against the engine.
func validateUser(usr *User, u, recipients int) error {
	if usr.Messages.None() {
		return fmt.Errorf("population: user %d has no message source", u)
	}
	if usr.Class < 0 || usr.Class > math.MaxInt32 {
		return fmt.Errorf("population: user %d has class %d out of range", u, usr.Class)
	}
	shape := usr.Shape
	if shape == nil {
		return fmt.Errorf("population: user %d has no profile", u)
	}
	if int(shape.nrcpt) != recipients {
		return fmt.Errorf("population: user %d profile spans %d recipients, engine has %d",
			u, shape.nrcpt, recipients)
	}
	return nil
}

// numShards returns the shard count of the fixed user partition.
func (e *Engine) numShards() int {
	return (e.n + e.shardSize - 1) / e.shardSize
}

// shardRange returns shard sh's half-open user range.
func (e *Engine) shardRange(sh int) (lo, hi int) {
	lo = sh * e.shardSize
	hi = lo + e.shardSize
	if hi > e.n {
		hi = e.n
	}
	return lo, hi
}

// install validates user u of shard sh and copies it into a new slot of
// the shard's arena: its merge starts (each source draws its first gap)
// and its contact set is drawn from its stream. It returns the slot's
// index; the caller marks the user warm.
func (e *Engine) install(sh, u int, usr *User) (int32, error) {
	if err := validateUser(usr, u, e.nrcpt); err != nil {
		return 0, err
	}
	a := &e.gens[sh].warm
	i, st := a.add()
	st.merge.Start(usr.Messages, usr.Cover)
	st.rng = usr.RNG
	st.class = int32(usr.Class)
	st.shape = a.shapeIndex(usr.Shape)
	usr.Shape.drawContacts(&st.rng, a.addContacts(st, len(usr.Shape.cum)))
	if usr.Presence != nil {
		for len(a.presence) <= int(i) {
			a.presence = append(a.presence, nil)
		}
		a.presence[i] = usr.Presence
	}
	return i, nil
}

// warmUp materializes user u of shard sh and returns its slot index: the
// builder creates the user, install copies it into the arena, and the
// merge replays the first arrival the init pass recorded as the user's
// frontier, so the built cursor lands exactly on it. A replayed arrival
// that differs from the frontier means the builder broke its contract
// (an impure Build, or a Frontier that disagrees with it); that is an
// error naming the user, never a silent desync. Warm users stay warm.
func (e *Engine) warmUp(sh, u int) (int32, error) {
	c := &e.cur[u]
	if c.slot >= 0 {
		return c.slot, nil
	}
	if e.build == nil {
		return 0, fmt.Errorf("population: user %d has no state and the engine has no builder", u)
	}
	usr, err := e.build.Build(u)
	if err != nil {
		return 0, fmt.Errorf("population: build user %d: %w", u, err)
	}
	i, err := e.install(sh, u, &usr)
	if err != nil {
		return 0, err
	}
	// Replay the frontier draw: a cold user's cursor still holds the
	// Frontier the init pass recorded, which is what the first merge must
	// return; consuming it aligns the fresh stream with the stored
	// frontier.
	st := e.gens[sh].warm.at(i)
	if t, cover := st.merge.NextFrom(); t != c.t || cover != c.cover {
		return 0, fmt.Errorf("population: user %d built with first arrival %v (cover %t) but its frontier is %v (cover %t): the builder is impure or its Frontier disagrees with Build",
			u, t, cover, c.t, c.cover)
	}
	c.slot = i
	return i, nil
}

// mustUser materializes user u for the read-only accessors, after
// joining a slab generating in the background, and returns its shard's
// arena and its slot index. A failure here means the builder cannot
// build a user whose frontier it reported, or breaks its purity
// contract; no error return can make that safe — panic loudly.
func (e *Engine) mustUser(u int) (*warmArena, int32) {
	e.join()
	sh := u / e.shardSize
	i, err := e.warmUp(sh, u)
	if err != nil {
		panic(err)
	}
	return &e.gens[sh].warm, i
}

// Users returns the population size.
func (e *Engine) Users() int { return e.n }

// WarmUsers returns how many users hold materialized source state — the
// resident-memory-relevant population, as opposed to Users().
func (e *Engine) WarmUsers() int {
	e.join()
	w := 0
	for _, c := range e.cur {
		if c.slot >= 0 {
			w++
		}
	}
	return w
}

// Class returns user u's class index, materializing the user if needed.
func (e *Engine) Class(u int) int {
	a, i := e.mustUser(u)
	return int(a.at(i).class)
}

// ContactsOf returns a copy of user u's contact set, heaviest first,
// materializing the user if needed.
func (e *Engine) ContactsOf(u int) []int32 {
	a, i := e.mustUser(u)
	return slices.Clone(a.contactsOf(a.at(i)))
}

// PresenceOf returns a private copy of user u's churn schedule (nil when
// the user never churns), materializing the user if needed. The copy
// answers every query as the user's own schedule does, and querying it
// never races with the engine's background generation, which queries
// the original.
func (e *Engine) PresenceOf(u int) *traffic.OnOffSchedule {
	a, i := e.mustUser(u)
	if p := a.presenceOf(i); p != nil {
		return p.Clone()
	}
	return nil
}

// SetWorkers bounds the per-shard generation parallelism (values < 1
// mean all CPUs). Results are identical at any width. With one worker
// the engine starts no goroutine.
func (e *Engine) SetWorkers(w int) {
	e.join()
	e.workers = w
}

// refill advances the merge to the next slab. Generation extends every
// shard's users' private event streams up to the next horizon in
// parallel and sorts each shard's slab by (time, user); the global merge
// then streams from the shard frontiers through an index min-heap. Each
// user's events are a pure function of its own streams and shards are
// disjoint user ranges, so the reduction's total order — ascending
// (time, user) — is identical at any worker count and identical to the
// previous concat-and-global-sort merge.
//
// With one worker a refill generates the slab and merges it. With more,
// it joins the slab generating in the background (the first refill
// generates its slab in the foreground), swaps it in, and starts
// generating the next slab in the background before the merge begins.
// Since every slab's events are the same whenever they are generated,
// the round stream is unchanged; a slab generated but never consumed
// adds no counters and reports no error.
func (e *Engine) refill() error {
	if e.shards == nil {
		e.shards = make([]shard, e.numShards())
	}
	if e.ahead {
		e.join()
		if e.genErr != nil {
			return e.genErr
		}
	} else if err := e.generate(); err != nil {
		return err
	}
	e.ahead = false
	// Counted in the sequential reduction (never the parallel fan-out):
	// a user is active in a generation slab if it produced events.
	for i := range e.shards {
		s, g := &e.shards[i], &e.gens[i]
		s.buf, g.spare = g.spare, s.buf
		s.pos = 0
		e.probe.Add(obs.PopulationActiveUser, uint64(g.active))
	}
	e.buildHeap()
	if par.Workers(e.workers) > 1 {
		e.ahead, e.running = true, true
		go e.generateAhead()
	}
	return nil
}

// generate extends every shard's spare slab to the next horizon.
func (e *Engine) generate() error {
	e.slabEnd += e.slabLen
	return par.MapWorker(len(e.gens), e.workers, func(_, sh int) error {
		return e.genShard(sh)
	})
}

// generateAhead is the background goroutine of a pipelined refill.
func (e *Engine) generateAhead() { e.done <- e.generate() }

// join waits for a slab generating in the background, keeping its error
// for the refill that consumes the slab. Every read of engine state
// joins first, and so does every way a disclosure run ends, so no
// generation outlives the run that started it.
func (e *Engine) join() {
	if e.running {
		e.genErr = <-e.done
		e.running = false
	}
}

// genShard generates shard sh's spare slab up to the current horizon.
// It visits only the blocks whose minimum frontier lies before the
// horizon and, within such a block, every due user in ascending order,
// as a scan of all users would, recording the block's new minimum as it
// goes.
func (e *Engine) genShard(sh int) error {
	g := &e.gens[sh]
	a := &g.warm
	end := e.slabEnd
	lo, hi := e.shardRange(sh)
	buf := g.spare[:0]
	active := 0
	for b := lo; b < hi; b += blockSize {
		bmin := &e.blockMin[sh*e.blocksPerShard+(b-lo)/blockSize]
		if *bmin >= end {
			continue
		}
		m := math.Inf(1) // the block's new minimum, as each cursor settles
		for u := b; u < min(b+blockSize, hi); u++ {
			c := &e.cur[u]
			if c.t < end {
				i, err := e.warmUp(sh, u)
				if err != nil {
					return err
				}
				st := a.at(i)
				shape, contacts, presence := a.shapes[st.shape], a.contactsOf(st), a.presenceOf(i)
				n0 := len(buf)
				for c.t < end {
					// Recipients are drawn for every generated arrival,
					// present or not, so a user's recipient stream position
					// depends only on its arrival count — adding churn
					// perturbs which messages exist, not how the survivors
					// draw.
					var rcpt int32
					if c.cover {
						rcpt = int32(st.rng.Intn(e.nrcpt))
					} else {
						rcpt = shape.draw(contacts, &st.rng)
					}
					if presence == nil || presence.UpAt(c.t) {
						buf = append(buf, event{t: c.t, user: int32(u), rcpt: rcpt, dummy: c.cover})
					}
					gap, cover := st.merge.NextFrom()
					c.t += gap
					c.cover = cover
				}
				if len(buf) > n0 {
					active++
				}
			}
			if c.t < m {
				m = c.t
			}
		}
		*bmin = m
	}
	g.spare, g.active = buf, active
	g.sorter.ev = buf
	sort.Sort(&g.sorter)
	return nil
}

// head is a merge-heap entry: a shard and the (time, user) key of its
// head event. Keeping the key in the entry lets the heap compare without
// reading the shards' buffers.
type head struct {
	t    float64
	user int32
	sh   int32
}

// before orders two heads by (time, user). Shards are disjoint ascending
// user ranges, so this tie-break matches the sort comparator's, and no
// two heads compare equal.
func (a *head) before(b *head) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.user < b.user
}

// siftDown restores the merge heap below position i.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// buildHeap (re)establishes the merge heap over the non-empty shards.
func (e *Engine) buildHeap() {
	e.heap = e.heap[:0]
	for i := range e.shards {
		if s := &e.shards[i]; s.pos < len(s.buf) {
			ev := &s.buf[s.pos]
			e.heap = append(e.heap, head{t: ev.t, user: ev.user, sh: int32(i)})
		}
	}
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// popEvent emits the next event of the merged stream from the k-way
// shard reduction. ok is false when the current slab is exhausted and the
// caller must refill.
func (e *Engine) popEvent() (ev event, ok bool) {
	if len(e.heap) == 0 {
		return event{}, false
	}
	top := &e.heap[0]
	s := &e.shards[top.sh]
	ev = s.buf[s.pos]
	s.pos++
	if s.pos < len(s.buf) {
		next := &s.buf[s.pos]
		top.t, top.user = next.t, next.user
	} else {
		last := len(e.heap) - 1
		e.heap[0] = e.heap[last]
		e.heap = e.heap[:last]
	}
	if len(e.heap) > 0 {
		e.siftDown(0)
	}
	return ev, true
}

// NextRound emits the next mix round: the next `batch` messages of the
// merged population stream, in arrival order (a threshold mix flushes
// when its batch fills). The round's slices are reused; steady state
// allocates nothing beyond the amortized slab buffers.
func (e *Engine) NextRound(batch int, r *Round) error {
	if batch < 1 {
		return errors.New("population: round batch must be at least 1")
	}
	r.Users = r.Users[:0]
	r.Rcpts = r.Rcpts[:0]
	r.Dummy = r.Dummy[:0]
	r.Times = r.Times[:0]
	for len(r.Users) < batch {
		ev, ok := e.popEvent()
		if !ok {
			if err := e.refill(); err != nil {
				return err
			}
			continue
		}
		if ev.dummy {
			e.probe.Inc(obs.TrafficCover)
		} else {
			e.probe.Inc(obs.PopulationMessage)
		}
		r.Users = append(r.Users, ev.user)
		r.Rcpts = append(r.Rcpts, ev.rcpt)
		r.Dummy = append(r.Dummy, ev.dummy)
		r.Times = append(r.Times, ev.t)
		r.Flush = ev.t
	}
	e.rounds++
	e.probe.Inc(obs.PopulationRound)
	// Round boundaries are the engine's natural flush points: coarse
	// enough to stay off the per-event path, fine enough for live reads.
	e.probe.Flush()
	return nil
}
