package netem

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"linkpad/internal/xrand"
)

func TestImpairmentValidate(t *testing.T) {
	bad := []Impairment{
		{LossProb: -0.1},
		{LossProb: 1},
		{DupProb: 1},
		{ReorderProb: 0.1},                   // no depth
		{ReorderDepth: 4},                    // depth without probability
		{ReorderProb: 0.1, ReorderDepth: -1}, // negative depth
		{ReorderProb: 0.1, ReorderDepth: 2000},
		{GE: &GilbertElliott{PGoodBad: 1.5, PBadGood: 0.5}},
		{GE: &GilbertElliott{PGoodBad: 0.5, PBadGood: 0.5, LossBad: 1}},
		// NaN fails no ordered comparison, so each is refused explicitly.
		{LossProb: math.NaN()},
		{DupProb: math.NaN()},
		{ReorderProb: math.NaN(), ReorderDepth: 2},
		{GE: &GilbertElliott{PGoodBad: math.NaN(), PBadGood: 0.5}},
		{GE: &GilbertElliott{PGoodBad: 0.5, PBadGood: 0.5, LossBad: math.NaN()}},
	}
	for i, im := range bad {
		if err := im.Validate(); err == nil {
			t.Errorf("profile %d should fail validation: %+v", i, im)
		}
	}
	var nilIm *Impairment
	if err := nilIm.Validate(); err != nil {
		t.Errorf("nil impairment should validate: %v", err)
	}
	if nilIm.Enabled() {
		t.Error("nil impairment reports enabled")
	}
	if (&Impairment{}).Enabled() {
		t.Error("zero impairment reports enabled")
	}
}

func TestGilbertElliottMeanLoss(t *testing.T) {
	// Stationary bad share p/(p+q); the faults.go lab chain: ~4.5%.
	g := GilbertElliott{PGoodBad: 0.05, PBadGood: 0.5, LossBad: 0.5}
	want := (0.05 / 0.55) * 0.5
	if got := g.MeanLoss(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanLoss = %v, want %v", got, want)
	}
	frozen := GilbertElliott{LossGood: 0.1}
	if got := frozen.MeanLoss(); got != 0.1 {
		t.Errorf("frozen chain MeanLoss = %v, want its good-state loss", got)
	}
}

// drainImpairer pulls n outputs (upstream is an infinite periodic clock).
func drainImpairer(t *testing.T, im *Impairment, seed uint64, n int) []float64 {
	t.Helper()
	up := periodicTimes(4*n+1024, 1e-3)
	p, err := NewImpairer(NewSliceStream(up), im, xrand.New(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

func TestImpairerLossRate(t *testing.T) {
	// i.i.d. loss at p: reading all outputs of a fixed input counts
	// (1-p)·n survivors.
	const n = 100000
	// 1024 guard times past the measurement region so the pull loop can
	// cross the boundary without exhausting the finite SliceStream.
	up := periodicTimes(n+1024, 1e-3)
	for _, p := range []float64{0.02, 0.1, 0.3} {
		imp, err := NewImpairer(NewSliceStream(up), &Impairment{LossProb: p}, xrand.New(5), nil)
		if err != nil {
			t.Fatal(err)
		}
		survived := 0
		end := up[n-1]
		for {
			t := imp.Next()
			if t > end {
				break
			}
			survived++
		}
		got := 1 - float64(survived)/float64(n)
		if math.Abs(got-p) > 0.01 {
			t.Errorf("loss %v: measured %v", p, got)
		}
	}
}

func TestImpairerGEBursty(t *testing.T) {
	// The GE chain loses at its stationary rate, and losses cluster: the
	// mean run length of consecutive losses exceeds the i.i.d. value.
	g := &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.5, LossBad: 0.5}
	const n = 200000
	up := periodicTimes(n+1024, 1e-3)
	imp, err := NewImpairer(NewSliceStream(up), &Impairment{GE: g}, xrand.New(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[float64]bool, n)
	end := up[n-1]
	for {
		t := imp.Next()
		if t > end {
			break
		}
		kept[t] = true
	}
	losses, runs, inRun := 0, 0, false
	for _, t := range up[:n] {
		if !kept[t] {
			losses++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	rate := float64(losses) / float64(n)
	if math.Abs(rate-g.MeanLoss()) > 0.01 {
		t.Errorf("GE loss rate %v, want %v", rate, g.MeanLoss())
	}
	// Given a loss, the next packet is also lost with probability
	// P(stay bad)·LossBad = 0.25, so the mean run is 1/(1-0.25) = 1.33 —
	// well above the i.i.d. value 1/(1-0.045) = 1.05 at the same rate.
	meanRun := float64(losses) / float64(runs)
	if meanRun < 1.25 {
		t.Errorf("GE mean loss-run length %v: losses are not bursty", meanRun)
	}
}

func TestImpairerDuplication(t *testing.T) {
	const n = 50000
	up := periodicTimes(n+1024, 1e-3)
	imp, err := NewImpairer(NewSliceStream(up), &Impairment{DupProb: 0.1}, xrand.New(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	end := up[n-1]
	dups := 0
	var prev float64 = -1
	for {
		t := imp.Next()
		if t > end {
			break
		}
		if t == prev {
			dups++
		}
		prev = t
	}
	if got := float64(dups) / float64(n); math.Abs(got-0.1) > 0.01 {
		t.Errorf("duplication rate %v, want 0.1", got)
	}
}

func TestImpairerMonotoneOutput(t *testing.T) {
	// Forward-path reordering displaces a packet's *timestamp*, so the
	// emitted time sequence stays non-decreasing under every knob at once.
	im := &Impairment{
		LossProb:     0.05,
		GE:           &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.5, LossBad: 0.5},
		DupProb:      0.05,
		ReorderProb:  0.1,
		ReorderDepth: 4,
	}
	out := drainImpairer(t, im, 8, 20000)
	if !sort.Float64sAreSorted(out) {
		t.Fatal("impaired forward path emitted a decreasing time")
	}
}

func TestImpairerReorderDisplacesTimestamps(t *testing.T) {
	// With only the reorder knob on, every input packet survives but some
	// are re-emitted at a later packet's timestamp: the output is a
	// multiset of input times where displaced entries repeat.
	const n = 20000
	const depth = 3
	up := periodicTimes(n, 1e-3)
	imp, err := NewImpairer(NewSliceStream(up), &Impairment{ReorderProb: 0.1, ReorderDepth: depth}, xrand.New(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without loss every input eventually surfaces except the <= depth
	// held at stream end, so n-depth pulls never exhaust the input.
	displaced := 0
	var prev float64 = -1
	count := n - depth
	for i := 0; i < count; i++ {
		t := imp.Next()
		if t == prev {
			displaced++
		}
		prev = t
	}
	if displaced == 0 {
		t.Fatal("reorder knob displaced nothing")
	}
	if got := float64(displaced) / float64(count); math.Abs(got-0.1) > 0.02 {
		t.Errorf("displacement rate %v, want ~0.1", got)
	}
}

func TestWrapRecordIdentityWhenDisabled(t *testing.T) {
	var got []float64
	record := func(t float64) { got = append(got, t) }
	var nilIm *Impairment
	wrapped, err := nilIm.WrapRecordObs(record, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped(1)
	zero := &Impairment{}
	wrapped2, err := zero.WrapRecordObs(record, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped2(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("disabled WrapRecordObs altered the callback: %v", got)
	}
}

func TestWrapRecordOutOfOrder(t *testing.T) {
	// A tap-side reorder records the held observation late with its
	// ORIGINAL timestamp — the recorded sequence is genuinely out of
	// order, unlike the forward path's displaced-timestamp discipline.
	im := &Impairment{ReorderProb: 0.2, ReorderDepth: 3}
	var got []float64
	wrapped, err := im.WrapRecordObs(func(t float64) { got = append(got, t) }, xrand.New(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		wrapped(float64(i + 1))
	}
	if sort.Float64sAreSorted(got) {
		t.Fatal("tap reordering produced a sorted capture")
	}
	// No invention, no duplication: the capture is a subset of the input
	// (observations still held at stream end are dropped, never invented).
	seen := make(map[float64]int, len(got))
	for _, t2 := range got {
		seen[t2]++
	}
	for t2, c := range seen {
		if c != 1 {
			t.Fatalf("observation %v recorded %d times with DupProb 0", t2, c)
		}
		if t2 < 1 || t2 > n || t2 != math.Trunc(t2) {
			t.Fatalf("invented observation %v", t2)
		}
	}
	if short := n - len(got); short < 0 || short > im.ReorderDepth {
		t.Errorf("%d observations missing; at most ReorderDepth=%d may be in flight at stream end",
			short, im.ReorderDepth)
	}
	// Displacement bound: a held observation re-emerges after at most
	// ReorderDepth subsequent recordings.
	for i, t2 := range got {
		if i-int(t2) > im.ReorderDepth {
			t.Fatalf("observation %v displaced beyond depth at index %d", t2, i)
		}
	}
}

func TestWrapRecordLossAndDup(t *testing.T) {
	im := &Impairment{LossProb: 0.1, DupProb: 0.05}
	var got []float64
	wrapped, err := im.WrapRecordObs(func(t float64) { got = append(got, t) }, xrand.New(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		wrapped(float64(i))
	}
	// Expected recordings per observation: (1-0.1)·(1+0.05).
	want := n * 0.9 * 1.05
	if math.Abs(float64(len(got))-want)/want > 0.02 {
		t.Errorf("recorded %d observations, want ~%.0f", len(got), want)
	}
}

// FuzzParseImpairment: arbitrary JSON profiles either fail Validate or
// build both impairment shapes. NewImpairer and WrapRecordObs must agree
// with Validate, never panic, and the tap wrapper must record at most
// two observations per input, each one an input timestamp.
func FuzzParseImpairment(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"loss_prob":0.05}`))
	f.Add([]byte(`{"ge":{"p_good_bad":0.05,"p_bad_good":0.5,"loss_bad":0.5},"dup_prob":0.01}`))
	f.Add([]byte(`{"reorder_prob":0.02,"reorder_depth":4}`))
	f.Add([]byte(`{"loss_prob":1e-300,"dup_prob":0.999}`))
	f.Add([]byte(`{"loss_prob":0.1}garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var im Impairment
		if json.Unmarshal(data, &im) != nil {
			return
		}
		valid := im.Validate() == nil
		_, errImp := NewImpairer(NewSliceStream(periodicTimes(4, 1e-3)), &im, xrand.New(1), nil)
		if valid != (errImp == nil) && im.Enabled() {
			t.Fatalf("Validate ok=%v but NewImpairer err=%v for %+v", valid, errImp, im)
		}
		var got []float64
		record, err := im.WrapRecordObs(func(t float64) { got = append(got, t) }, xrand.New(2), nil)
		if valid != (err == nil) {
			t.Fatalf("Validate ok=%v but WrapRecordObs err=%v for %+v", valid, err, im)
		}
		if !valid {
			return
		}
		const n = 256
		for i := 0; i < n; i++ {
			record(float64(i))
		}
		if len(got) > 2*n {
			t.Fatalf("recorded %d observations from %d inputs", len(got), n)
		}
		for _, x := range got {
			if x != math.Trunc(x) || x < 0 || x >= n {
				t.Fatalf("recorded %v, not an input timestamp", x)
			}
		}
	})
}

// TestImpairShapesAgree: the forward-path Impairer and the tap wrapper
// draw the same variates in the same order, so at one seed they drop,
// duplicate and hold the same packet indices. The tap records each
// emission at its packet's own time, the stream at the time of the
// packet in place when it is emitted; entry k of the stream is
// therefore the running maximum of the tap's first k+1 entries.
func TestImpairShapesAgree(t *testing.T) {
	im := &Impairment{
		GE:       &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.4, LossBad: 0.5},
		LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.15, ReorderDepth: 3,
	}
	const n, seed = 4000, 42
	up := periodicTimes(n+1024, 1) // packet i has time i+1
	var tap []float64
	record, err := im.WrapRecordObs(func(x float64) { tap = append(tap, x) }, xrand.New(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range up[:n] {
		record(x)
	}
	p, err := NewImpairer(NewSliceStream(up), im, xrand.New(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]float64, len(tap))
	p.NextBatch(stream)

	seen := make(map[float64]int, len(tap))
	held := 0
	top := 0.0
	for k, x := range tap {
		seen[x]++
		if x < top {
			held++
		}
		top = math.Max(top, x)
		if stream[k] != top {
			t.Fatalf("emission %d: stream time %v, tap running max %v (tap entry %v)", k, stream[k], top, x)
		}
	}
	dups := 0
	for _, c := range seen {
		if c == 2 {
			dups++
		}
	}
	if dropped := n - len(seen); dropped == 0 || dups == 0 || held == 0 {
		t.Fatalf("profile exercised too little: %d dropped, %d duplicated, %d held", dropped, dups, held)
	}
}
