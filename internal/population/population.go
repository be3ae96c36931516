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
// its frontier (next arrival time and origin, ~9 bytes), which the init
// pass reads from the pure per-user Builder's Frontier without building
// the user, and its full source state is built by Builder.Build the
// first time it actually sends. Resident memory is thus dominated by the
// compact frontier plus the users active so far, not by N fully built
// source stacks, and the init pass costs one frontier read per user
// rather than one build. A refill touches only the users that are due:
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
	"sort"

	"linkpad/internal/obs"
	"linkpad/internal/par"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Profile is one user's recipient distribution: a small contact set
// carrying most of the probability mass (Zipf-weighted, so the first
// contact is the heaviest) over a uniform background across all
// recipients. This is the structure statistical disclosure exploits —
// and what "disclosure" means: identifying the contact set.
type Profile struct {
	contacts []int32
	shape    *ProfileShape // shared read-only by every profile of the shape
}

// ProfileShape is what every profile of a population shares: the
// recipient space, the contact-set size and mass, and the Zipf weights
// within the set. The weights are computed once per shape, and every
// profile drawn from it reads them, so a profile owns only its contact
// set.
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

// NewProfile draws one profile of the shape. The contact set is drawn
// from rng, so a profile is deterministic from its stream.
func (s *ProfileShape) NewProfile(rng *xrand.Rand) (Profile, error) {
	if rng == nil {
		return Profile{}, errors.New("population: nil rng")
	}
	contacts := len(s.cum)
	cs := make([]int32, 0, contacts)
	for len(cs) < contacts {
		c := int32(rng.Intn(int(s.nrcpt)))
		dup := false
		for _, x := range cs {
			if x == c {
				dup = true
				break
			}
		}
		if !dup {
			cs = append(cs, c)
		}
	}
	return Profile{contacts: cs, shape: s}, nil
}

// Draw picks one recipient from the profile using rng.
func (p *Profile) Draw(rng *xrand.Rand) int32 {
	s := p.shape
	u := rng.Float64()
	if u < s.weight {
		// Reuse the uniform: u/weight is uniform in [0,1) given u < weight.
		v := u / s.weight
		for i, c := range s.cum {
			if v < c {
				return p.contacts[i]
			}
		}
		return p.contacts[len(p.contacts)-1]
	}
	return int32(rng.Intn(int(s.nrcpt)))
}

// Contacts returns a copy of the contact set, heaviest first.
func (p *Profile) Contacts() []int32 {
	return append([]int32(nil), p.contacts...)
}

// User is one sender of the population. Its stochastic elements —
// message arrivals, optional cover arrivals, and the recipient-draw
// stream — must be private to the user (never shared), which is what
// lets the engine generate users in parallel deterministically.
type User struct {
	// Class is the user's payload-rate class index.
	Class int
	// Messages is the user's real message arrival process.
	Messages traffic.Source
	// Cover is the user's dummy arrival process; nil means no cover
	// traffic. Cover messages are indistinguishable from real ones at the
	// ingress tap and are delivered to uniformly random recipients.
	Cover traffic.Source
	// Profile is the user's recipient distribution for real messages.
	Profile Profile
	// RNG draws recipients (real and dummy) in event order.
	RNG *xrand.Rand
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

// Builder materializes users from their indices. A builder must be pure:
// calling Build twice with the same index must yield two fresh,
// identically seeded source stacks (the repository's (seed, class,
// userID) stream derivation satisfies this by construction), and
// Frontier(u) must report, bit for bit, what a fresh Build(u) would
// yield first: the earlier of the payload's and the cover's first
// arrivals (a tie going to the payload, as the engine's merge breaks
// it) and the payload's rate plus the cover's, in that order. The
// engine reads every user's Frontier once at construction and calls
// Build only when a user first sends and for the read-only accessors;
// it checks the rebuilt first arrival against the recorded frontier and
// fails naming the user when they differ.
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

// userState is one warm user's full materialization: the merged
// stream of its built sources and the rest of its User. Cold users have
// no userState at all — their generation cursor lives in the engine's
// frontier arrays.
type userState struct {
	// merge is the user's payload (first) and cover (second, nil without
	// cover) merged; its NextFrom reports a cover arrival as the second
	// source firing.
	merge    traffic.Pair
	class    int
	profile  Profile
	rng      *xrand.Rand
	presence *traffic.OnOffSchedule
}

// newUserState starts user usr's merge: each source draws its first gap,
// which is its first arrival's absolute time.
func newUserState(usr *User) *userState {
	return &userState{
		merge:    traffic.NewPair(usr.Messages, usr.Cover),
		class:    usr.Class,
		profile:  usr.Profile,
		rng:      usr.RNG,
		presence: usr.Presence,
	}
}

// shard is one contiguous user range's merge cursor: its slab of events,
// sorted by (t, user), and the position of the next one to merge.
type shard struct {
	buf []event
	pos int
}

// shardGen is one shard's generation state: the slab being generated
// (spare, and active, its count of users that emitted at least one
// event) and a reusable sorter, so a refill allocates nothing beyond
// amortized buffer growth. A refill swaps spare with the shard's
// merged buf. Generation writes only shardGen and the merge only shard,
// and the two live in separate arrays, so a pipelined engine generates
// the next slab while the current one is merged without either
// goroutine writing a cache line the other reads.
type shardGen struct {
	spare  []event
	active int
	sorter eventSorter
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

	// Frontier (all users, cold included): the absolute time and origin
	// of each user's pending arrival. ~9 bytes per user is the whole
	// per-user cost of a cold user.
	nextT     []float64
	nextCover []bool
	// warm holds the materialized users (nil while cold). A user warms on
	// its first generated event and stays warm.
	warm []*userState

	// blockMin[b] is the least nextT over block b's users. Blocks are
	// blockSize users, laid out shard by shard so that none straddles a
	// shard: shard sh owns blocks [sh*blocksPerShard, (sh+1)*blocksPerShard).
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
// when the minimum lies before the new horizon; 16 frontier times fill
// two cache lines.
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
			e.nextT[u], e.nextCover[u] = f.T, f.Cover
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

// newEngine allocates the frontier arrays and validates the shape.
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
		nextT:     make([]float64, n),
		nextCover: make([]bool, n),
		warm:      make([]*userState, n),
		shardSize: shardSize,
		probe:     obs.NewShard(),
		done:      make(chan error, 1),
	}
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
	for _, t := range e.nextT[b:min(b+blockSize, hi)] {
		if t < m {
			m = t
		}
	}
	e.blockMin[sh*e.blocksPerShard+(b-lo)/blockSize] = m
}

// validateUser checks one user's shape against the engine.
func validateUser(usr *User, u, recipients int) error {
	if usr.Messages == nil || usr.RNG == nil {
		return fmt.Errorf("population: user %d missing sources", u)
	}
	if usr.Class < 0 {
		return fmt.Errorf("population: user %d has negative class", u)
	}
	shape := usr.Profile.shape
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

// warmUp materializes user u: the builder creates its source stack and
// the merge replays the first arrival the init pass recorded as the
// user's frontier, so the built cursor lands exactly on it. A replayed
// arrival that differs from the frontier means the builder broke its
// contract (an impure Build, or a Frontier that disagrees with it); that
// is an error naming the user, never a silent desync. Warm users stay
// warm.
func (e *Engine) warmUp(u int) (*userState, error) {
	if st := e.warm[u]; st != nil {
		return st, nil
	}
	if e.build == nil {
		return nil, fmt.Errorf("population: user %d has no state and the engine has no builder", u)
	}
	usr, err := e.build.Build(u)
	if err != nil {
		return nil, fmt.Errorf("population: build user %d: %w", u, err)
	}
	if err := validateUser(&usr, u, e.nrcpt); err != nil {
		return nil, err
	}
	st := newUserState(&usr)
	// Replay the frontier draw: a cold user's (nextT, nextCover) is still
	// the Frontier the init pass recorded, which is what the first merge
	// must return; consuming it aligns the fresh stream with the stored
	// frontier.
	if t, cover := st.merge.NextFrom(); t != e.nextT[u] || cover != e.nextCover[u] {
		return nil, fmt.Errorf("population: user %d built with first arrival %v (cover %t) but its frontier is %v (cover %t): the builder is impure or its Frontier disagrees with Build",
			u, t, cover, e.nextT[u], e.nextCover[u])
	}
	e.warm[u] = st
	return st, nil
}

// mustUser materializes user u for the read-only accessors, after
// joining a slab generating in the background. A failure here means the
// builder cannot build a user whose frontier it reported, or breaks its
// purity contract; no error return can make that safe — panic loudly.
func (e *Engine) mustUser(u int) *userState {
	e.join()
	st, err := e.warmUp(u)
	if err != nil {
		panic(err)
	}
	return st
}

// Users returns the population size.
func (e *Engine) Users() int { return e.n }

// WarmUsers returns how many users hold materialized source state — the
// resident-memory-relevant population, as opposed to Users().
func (e *Engine) WarmUsers() int {
	e.join()
	w := 0
	for _, st := range e.warm {
		if st != nil {
			w++
		}
	}
	return w
}

// Class returns user u's class index, materializing the user if needed.
func (e *Engine) Class(u int) int { return e.mustUser(u).class }

// ContactsOf returns a copy of user u's contact set, heaviest first,
// materializing the user if needed.
func (e *Engine) ContactsOf(u int) []int32 { return e.mustUser(u).profile.Contacts() }

// PresenceOf returns a private copy of user u's churn schedule (nil when
// the user never churns), materializing the user if needed. The copy
// answers every query as the user's own schedule does, and querying it
// never races with the engine's background generation, which queries
// the original.
func (e *Engine) PresenceOf(u int) *traffic.OnOffSchedule {
	if p := e.mustUser(u).presence; p != nil {
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
		e.gens = make([]shardGen, e.numShards())
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
// as a scan of all users would; it then recomputes the block's minimum.
func (e *Engine) genShard(sh int) error {
	g := &e.gens[sh]
	end := e.slabEnd
	lo, hi := e.shardRange(sh)
	buf := g.spare[:0]
	active := 0
	for b := lo; b < hi; b += blockSize {
		if e.blockMin[sh*e.blocksPerShard+(b-lo)/blockSize] >= end {
			continue
		}
		for u := b; u < min(b+blockSize, hi); u++ {
			if e.nextT[u] >= end {
				continue
			}
			st, err := e.warmUp(u)
			if err != nil {
				return err
			}
			n0 := len(buf)
			for e.nextT[u] < end {
				// Recipients are drawn for every generated arrival, present
				// or not, so a user's recipient stream position depends only
				// on its arrival count — adding churn perturbs which
				// messages exist, not how the survivors draw.
				var rcpt int32
				if e.nextCover[u] {
					rcpt = int32(st.rng.Intn(e.nrcpt))
				} else {
					rcpt = st.profile.Draw(st.rng)
				}
				if st.presence == nil || st.presence.UpAt(e.nextT[u]) {
					buf = append(buf, event{t: e.nextT[u], user: int32(u), rcpt: rcpt, dummy: e.nextCover[u]})
				}
				gap, cover := st.merge.NextFrom()
				e.nextT[u] += gap
				e.nextCover[u] = cover
			}
			if len(buf) > n0 {
				active++
			}
		}
		e.indexBlock(sh, b)
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
