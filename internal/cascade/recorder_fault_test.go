package cascade

import (
	"sort"
	"testing"

	"linkpad/internal/adversary"
	"linkpad/internal/netem"
	"linkpad/internal/xrand"
)

// TestRecorderUnderImpairedTap drives an entry Recorder through an
// impaired capture (duplication + reordering, no loss) and checks the
// rate-vector reduction the correlation attack performs: the recorded
// sequence is genuinely out of order, yet binning recovers exactly the
// clean counts plus the duplicates — the reduction is insensitive to
// capture order, so only loss (not mis-sequencing) degrades the attack.
func TestRecorderUnderImpairedTap(t *testing.T) {
	im := &netem.Impairment{DupProb: 0.1, ReorderProb: 0.2, ReorderDepth: 4}
	var rec Recorder
	record, err := im.WrapRecordObs(rec.Record, xrand.New(55), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(56)
	const n = 20000
	clean := make([]float64, n)
	now := 0.0
	for i := range clean {
		now += rng.Exp(0.005)
		clean[i] = now
		record(clean[i])
	}
	got := rec.Times()
	if sort.Float64sAreSorted(got) {
		t.Fatal("impaired tap should record out of order")
	}
	if len(got) <= n {
		t.Fatalf("duplication should inflate the capture: %d <= %d", len(got), n)
	}

	// Per-observation accounting: each clean time appears once or twice
	// (dup), except the <= depth held at stream end.
	count := make(map[float64]int, n)
	for _, x := range got {
		count[x]++
	}
	dups, missing := 0, 0
	for _, x := range clean {
		switch count[x] {
		case 0:
			missing++
		case 1:
		case 2:
			dups++
		default:
			t.Fatalf("observation %v recorded %d times", x, count[x])
		}
	}
	if missing > im.ReorderDepth {
		t.Fatalf("%d observations missing, at most ReorderDepth=%d may be held at stream end",
			missing, im.ReorderDepth)
	}
	if dups == 0 {
		t.Fatal("no duplicates recorded at DupProb 0.1")
	}

	// The rate vector of the mis-ordered capture equals the vector of the
	// same multiset sorted: the reduction sees through the reordering.
	width := now / 50
	vecGot := make([]float64, 50)
	if _, err := adversary.RateVector(got, 0, width, vecGot); err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), got...)
	sort.Float64s(sorted)
	vecSorted := make([]float64, 50)
	if _, err := adversary.RateVector(sorted, 0, width, vecSorted); err != nil {
		t.Fatal(err)
	}
	for i := range vecGot {
		if vecGot[i] != vecSorted[i] {
			t.Fatalf("bin %d differs between mis-ordered and sorted capture", i)
		}
	}
}
