package cascade

import (
	"sort"
	"testing"

	"linkpad/internal/netem"
	"linkpad/internal/xrand"
)

// TestRecorderUnderImpairedTap drives an entry Recorder through an
// impaired capture (duplication + reordering, no loss) and checks the
// rate-vector reduction the correlation attack performs: the observed
// sequence is genuinely out of order, yet counting recovers exactly the
// clean counts plus the duplicates — the reduction is insensitive to
// capture order, so only loss (not mis-sequencing) degrades the attack.
func TestRecorderUnderImpairedTap(t *testing.T) {
	const bins = 120 // whole seconds, past the ~100 s the stream spans
	im := &netem.Impairment{DupProb: 0.1, ReorderProb: 0.2, ReorderDepth: 4}
	rec := Recorder{Row: make([]float64, bins), End: bins}
	var got []float64 // what reached the recorder, in arrival order
	record, err := im.WrapRecordObs(func(x float64) {
		got = append(got, x)
		rec.Record(x)
	}, xrand.New(55), nil)
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

	// The row counted from the mis-ordered capture equals the row of the
	// same multiset sorted: the reduction sees through the reordering.
	sorted := append([]float64(nil), got...)
	sort.Float64s(sorted)
	ordered := Recorder{Row: make([]float64, bins), End: bins}
	for _, x := range sorted {
		ordered.Record(x)
	}
	for i := range rec.Row {
		if rec.Row[i] != ordered.Row[i] {
			t.Fatalf("bin %d differs between mis-ordered and sorted capture", i)
		}
	}
	if ordered.Row[bins-1] != 0 || ordered.Row[0] == 0 {
		t.Fatalf("the stream should fill the first window and end before the last: %v", ordered.Row)
	}
}
