package experiment

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
)

// fastOpts keeps unit-test runtime low; the bench harness and CLI run at
// higher scales.
var fastOpts = Options{Scale: 0.25, Seed: 7}

func runTable(t *testing.T, id string) *Table {
	t.Helper()
	return runTableWith(t, id, fastOpts)
}

// runTableWith is runTable at the given options.
func runTableWith(t *testing.T, id string, o Options) *Table {
	t.Helper()
	tbl, err := Run(context.Background(), id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl.ID != id {
		t.Fatalf("table ID = %q, want %q", tbl.ID, id)
	}
	checkTable(t, id, tbl.Columns, tbl.Rows)
	return tbl
}

// checkTable asserts what every runner's table must satisfy: it has
// rows, every row is as wide as the header, every value is finite and
// every rate column (isRateColumn) lies in [0, 1].
func checkTable(t *testing.T, id string, cols []string, rows [][]float64) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for i, row := range rows {
		if len(row) != len(cols) {
			t.Fatalf("%s row %d: %d cells for %d columns", id, i, len(row), len(cols))
		}
		for j, v := range row {
			c := cols[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s row %d column %s: non-finite value %v", id, i, c, v)
			}
			if isRateColumn(c) && (v < 0 || v > 1) {
				t.Errorf("%s row %d column %s: rate %v outside [0, 1]", id, i, c, v)
			}
		}
	}
}

// isRateColumn reports whether a column holds a probability, fraction
// or normalized entropy, which must lie in [0, 1].
func isRateColumn(name string) bool {
	for _, suffix := range []string{"_emp", "_theory", "_acc", "_frac", "_det"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	switch name {
	case "det_rate", "anonymity", "mean_anonymity", "detection", "accuracy", "recall":
		return true
	}
	return false
}

func col(tbl *Table, name string) []float64 {
	idx := -1
	for j, c := range tbl.Columns {
		if c == name {
			idx = j
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(tbl.Rows))
	for i, row := range tbl.Rows {
		out[i] = row[idx]
	}
	return out
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"ablation-binwidth", "ablation-churn",
		"ablation-crossmodel", "ablation-hop-policies", "ablation-payload",
		"ablation-population-padding", "ablation-tap", "ablation-theorygap",
		"ablation-training", "ablation-watermark-defenses",
		"ablation-windowing", "baseline-policies", "ext-active",
		"ext-cascade", "ext-disclosure", "ext-features", "ext-impairments",
		"ext-online", "ext-sda-arms-race", "ext-sizes", "fig4a", "fig4b",
		"fig5a", "fig5b", "fig6", "fig8a", "fig8b", "multirate",
		"scale-disclosure", "scale-sda-ls", "validate-exactnet"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry has %v, want %v", names, want)
		}
	}
	if _, err := Run(context.Background(), "nope", fastOpts); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFig4aShape(t *testing.T) {
	tbl := runTable(t, "fig4a")
	// Densities are non-negative and each class's density peaks near the
	// center (offset 0) — the bell shape of paper Fig. 4(a).
	dLow := col(tbl, "density_10pps")
	dHigh := col(tbl, "density_40pps")
	center := len(dLow) / 2
	for i := range dLow {
		if dLow[i] < 0 || dHigh[i] < 0 {
			t.Fatal("negative density")
		}
	}
	if dLow[center] < dLow[0]*5 || dHigh[center] < dHigh[0]*5 {
		t.Errorf("densities not peaked at center: low %v->%v, high %v->%v",
			dLow[0], dLow[center], dHigh[0], dHigh[center])
	}
	// The high-rate class is more spread: lower peak density.
	if dHigh[center] >= dLow[center] {
		t.Errorf("high-rate peak %v should be below low-rate peak %v (r>1)",
			dHigh[center], dLow[center])
	}
}

func TestFig4bShape(t *testing.T) {
	tbl := runTable(t, "fig4b")
	ns := col(tbl, "n")
	varEmp := col(tbl, "var_emp")
	entEmp := col(tbl, "ent_emp")
	meanEmp := col(tbl, "mean_emp")
	last := len(ns) - 1
	// Variance and entropy climb to near-perfect detection by n=2000.
	if varEmp[last] < 0.9 || entEmp[last] < 0.9 {
		t.Errorf("large-n detection: var %v ent %v, want > 0.9", varEmp[last], entEmp[last])
	}
	// They improve with n overall.
	if varEmp[last] <= varEmp[0] || entEmp[last] <= entEmp[0] {
		t.Errorf("detection did not grow with n: var %v->%v ent %v->%v",
			varEmp[0], varEmp[last], entEmp[0], entEmp[last])
	}
	// Mean stays far below, near guessing.
	for i := range meanEmp {
		if meanEmp[i] > 0.75 {
			t.Errorf("mean detection at n=%v is %v, should stay near 0.5", ns[i], meanEmp[i])
		}
	}
	// Empirical tracks theory for variance/entropy at the largest n.
	varTh := col(tbl, "var_theory")
	entTh := col(tbl, "ent_theory")
	if diff := varEmp[last] - varTh[last]; diff < -0.15 || diff > 0.15 {
		t.Errorf("variance empirical %v vs theory %v", varEmp[last], varTh[last])
	}
	if diff := entEmp[last] - entTh[last]; diff < -0.15 || diff > 0.15 {
		t.Errorf("entropy empirical %v vs theory %v", entEmp[last], entTh[last])
	}
}

func TestFig5aShape(t *testing.T) {
	tbl := runTable(t, "fig5a")
	varEmp := col(tbl, "var_emp")
	entEmp := col(tbl, "ent_emp")
	rModel := col(tbl, "model_r")
	last := len(varEmp) - 1
	// CIT (sigma_T = 0) is detectable at n=2000; large sigma_T defeats it.
	if varEmp[0] < 0.9 || entEmp[0] < 0.9 {
		t.Errorf("sigma_T=0 detection: var %v ent %v, want > 0.9", varEmp[0], entEmp[0])
	}
	// At this test's reduced scale (60 eval windows) the Monte Carlo
	// noise on a 0.5 expectation is ~0.065, so bound loosely; the bench
	// harness at full scale pins this tighter.
	if varEmp[last] > 0.68 || entEmp[last] > 0.68 {
		t.Errorf("sigma_T=100us detection: var %v ent %v, want ~0.5", varEmp[last], entEmp[last])
	}
	// Model r decreases toward 1 monotonically.
	for i := 1; i < len(rModel); i++ {
		if rModel[i] > rModel[i-1]+1e-12 {
			t.Fatalf("model r not decreasing: %v", rModel)
		}
	}
	if rModel[last] > 1.05 {
		t.Errorf("model r at 100us = %v, want ~1", rModel[last])
	}
}

func TestFig5bShape(t *testing.T) {
	tbl := runTable(t, "fig5b")
	n99v := col(tbl, "n99_variance")
	n99e := col(tbl, "n99_entropy")
	// Required sample size explodes with sigma_T.
	for i := 1; i < len(n99v); i++ {
		if n99v[i] <= n99v[i-1] || n99e[i] <= n99e[i-1] {
			t.Fatal("n(99%) must increase with sigma_T")
		}
	}
	last := len(n99v) - 1
	if n99v[last] < 1e11 {
		t.Errorf("n99 at sigma_T=1ms = %v, want > 1e11 (paper's headline)", n99v[last])
	}
}

func TestFig6Shape(t *testing.T) {
	tbl := runTable(t, "fig6")
	util := col(tbl, "utilization")
	varEmp := col(tbl, "var_emp")
	entEmp := col(tbl, "ent_emp")
	meanEmp := col(tbl, "mean_emp")
	first, last := 0, len(util)-1
	// Detection falls with utilization for variance and entropy.
	if varEmp[last] >= varEmp[first] || entEmp[last] >= entEmp[first] {
		t.Errorf("detection did not fall with utilization: var %v->%v ent %v->%v",
			varEmp[first], varEmp[last], entEmp[first], entEmp[last])
	}
	// Entropy is the more robust feature under cross traffic (outliers):
	// compare at the highest utilization.
	if entEmp[last] < varEmp[last]-0.05 {
		t.Errorf("entropy (%v) should not fall below variance (%v) at u=0.5",
			entEmp[last], varEmp[last])
	}
	// Mean stays near guessing everywhere.
	for i := range meanEmp {
		if meanEmp[i] > 0.72 {
			t.Errorf("mean detection %v at u=%v", meanEmp[i], util[i])
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	campus := runTable(t, "fig8a")
	wan := runTable(t, "fig8b")
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	campusEnt := avg(col(campus, "ent_emp"))
	wanEnt := avg(col(wan, "ent_emp"))
	// Campus detection stays high; WAN is substantially lower.
	if campusEnt < 0.8 {
		t.Errorf("campus mean entropy detection = %v, want > 0.8", campusEnt)
	}
	if wanEnt >= campusEnt-0.05 {
		t.Errorf("WAN (%v) should be clearly below campus (%v)", wanEnt, campusEnt)
	}
	// WAN night hours (2-4 AM rows) beat the afternoon (14-16) —
	// the paper's "2:00AM" observation.
	hours := col(wan, "hour")
	ent := col(wan, "ent_emp")
	night, day := 0.0, 0.0
	var nNight, nDay int
	for i, h := range hours {
		switch h {
		case 2, 4:
			night += ent[i]
			nNight++
		case 14, 16:
			day += ent[i]
			nDay++
		}
	}
	if nNight == 0 || nDay == 0 {
		t.Fatal("missing night/day rows")
	}
	if night/float64(nNight) <= day/float64(nDay) {
		t.Errorf("WAN night detection (%v) should exceed afternoon (%v)",
			night/float64(nNight), day/float64(nDay))
	}
}

func TestMultiRate(t *testing.T) {
	tbl := runTable(t, "multirate")
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 class rows, got %d", len(tbl.Rows))
	}
	recalls := col(tbl, "recall")
	var sum float64
	for _, r := range recalls {
		if r < 0 || r > 1 {
			t.Fatalf("recall %v out of range", r)
		}
		sum += r
	}
	// Four CIT classes at the gateway should be far above 0.25 guessing.
	if sum/4 < 0.6 {
		t.Errorf("mean recall = %v, want > 0.6", sum/4)
	}
}

func TestAblationBinWidth(t *testing.T) {
	tbl := runTable(t, "ablation-binwidth")
	det := col(tbl, "ent_emp")
	widths := col(tbl, "bin_width_us")
	// The default 2us bin must be near the best of the sweep, and the
	// coarsest bin must be clearly worse than the best.
	best, atDefault, coarsest := 0.0, 0.0, det[len(det)-1]
	for i, w := range widths {
		if det[i] > best {
			best = det[i]
		}
		if w == 2 {
			atDefault = det[i]
		}
	}
	if atDefault < best-0.1 {
		t.Errorf("default bin width detection %v far below best %v", atDefault, best)
	}
	if coarsest > best-0.05 {
		t.Errorf("coarsest bin (%v) should lose information vs best (%v)", coarsest, best)
	}
}

func TestAblationTraining(t *testing.T) {
	tbl := runTable(t, "ablation-training")
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 feature rows")
	}
	kde := col(tbl, "kde_emp")
	gauss := col(tbl, "gaussfit_emp")
	// Variance and entropy rows: both trainings should detect well here
	// (feature distributions are near-normal at the gateway).
	for i := 1; i <= 2; i++ {
		if kde[i] < 0.85 || gauss[i] < 0.85 {
			t.Errorf("row %d: kde %v gauss %v, want both > 0.85", i, kde[i], gauss[i])
		}
	}
}

func TestAblationPayload(t *testing.T) {
	tbl := runTable(t, "ablation-payload")
	ent := col(tbl, "ent_emp")
	// The leak persists across payload models.
	for i, v := range ent {
		if v < 0.8 {
			t.Errorf("model row %d: entropy detection %v, want > 0.8 (leak persists)", i, v)
		}
	}
}

func TestAblationTap(t *testing.T) {
	tbl := runTable(t, "ablation-tap")
	res := col(tbl, "resolution_us")
	ent := col(tbl, "ent_emp")
	var perfect, coarse float64
	for i := range res {
		if res[i] == 0 && col(tbl, "loss_prob")[i] == 0 {
			perfect = ent[i]
		}
		if res[i] == 20 {
			coarse = ent[i]
		}
	}
	if perfect < 0.9 {
		t.Errorf("perfect tap detection = %v", perfect)
	}
	if coarse > perfect-0.2 {
		t.Errorf("20us clock (%v) should destroy most of the leak vs perfect (%v)", coarse, perfect)
	}
}

func TestAblationTheoryGap(t *testing.T) {
	tbl := runTable(t, "ablation-theorygap")
	emp := col(tbl, "ent_emp")
	th := col(tbl, "ent_theory")
	// At sigma_T = 0 the two should roughly agree; at mid sigma_T the
	// empirical attack is allowed to exceed theory (shape leakage), never
	// to fall dramatically below it.
	if diff := emp[0] - th[0]; diff < -0.15 || diff > 0.15 {
		t.Errorf("sigma_T=0: emp %v vs theory %v", emp[0], th[0])
	}
	for i := range emp {
		if emp[i] < th[i]-0.15 {
			t.Errorf("row %d: empirical %v far below theory %v", i, emp[i], th[i])
		}
	}
}

// The policy comparison: CIT detectable by second-order features, VIT by
// none, adaptive masking by everything (including the mean) — but cheap.
func TestBaselinePolicies(t *testing.T) {
	tbl := runTable(t, "baseline-policies")
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 policy rows")
	}
	mean := col(tbl, "mean_emp")
	ent := col(tbl, "ent_emp")
	pps := col(tbl, "padded_pps_low")
	delay := col(tbl, "mean_delay_ms")
	// CIT (row 0): entropy detects, mean does not.
	if ent[0] < 0.9 || mean[0] > 0.75 {
		t.Errorf("CIT: ent %v mean %v", ent[0], mean[0])
	}
	// VIT (row 1): nothing detects well.
	if ent[1] > 0.72 || mean[1] > 0.72 {
		t.Errorf("VIT: ent %v mean %v", ent[1], mean[1])
	}
	// Adaptive (row 2): even the mean feature detects, but bandwidth is
	// far below CIT's 100 pps and delay is worse.
	if mean[2] < 0.95 {
		t.Errorf("adaptive: mean detection %v, want ~1", mean[2])
	}
	if pps[2] > 0.6*pps[0] {
		t.Errorf("adaptive padded rate %v should undercut CIT %v", pps[2], pps[0])
	}
	if delay[2] <= delay[0] {
		t.Errorf("adaptive delay %v should exceed CIT %v", delay[2], delay[0])
	}
	// Mix (row 3): detected at first order, cheapest in bandwidth
	// (sends only the payload), worst in delay (waits for K packets).
	if mean[3] < 0.95 {
		t.Errorf("mix: mean detection %v, want ~1", mean[3])
	}
	if pps[3] > 0.2*pps[0] {
		t.Errorf("mix padded rate %v should be ~ the payload rate", pps[3])
	}
	if delay[3] <= delay[2] {
		t.Errorf("mix delay %v should exceed adaptive's %v", delay[3], delay[2])
	}
}

// Size-based identification: unpadded sizes identify the application,
// constant padding reduces the adversary to exact guessing, buckets sit
// in between on overhead.
func TestExtSizes(t *testing.T) {
	tbl := runTable(t, "ext-sizes")
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 padder rows")
	}
	det := col(tbl, "detection")
	ovInter := col(tbl, "overhead_interactive")
	if det[0] < 0.99 {
		t.Errorf("unpadded size detection = %v, want ~1", det[0])
	}
	if det[2] != 0.5 {
		t.Errorf("constant-pad detection = %v, want exactly 0.5", det[2])
	}
	if det[1] <= det[2] {
		t.Errorf("bucket detection %v should exceed constant %v", det[1], det[2])
	}
	// Overheads: none = 1; constant is the most expensive for the small-
	// packet profile.
	if ovInter[0] != 1 {
		t.Errorf("NoPad overhead = %v", ovInter[0])
	}
	if !(ovInter[2] > ovInter[1] && ovInter[1] >= 1) {
		t.Errorf("overhead ordering broken: %v", ovInter)
	}
}

// Burstier cross traffic at equal utilization gives better cover: both
// second-order features detect less against train cross traffic than
// against Poisson.
func TestAblationCrossModel(t *testing.T) {
	tbl := runTable(t, "ablation-crossmodel")
	if len(tbl.Rows) != 2 {
		t.Fatalf("expected 2 model rows")
	}
	ent := col(tbl, "ent_emp")
	if ent[1] > ent[0]+0.05 {
		t.Errorf("bursty cross (%v) should not beat Poisson cover (%v)", ent[1], ent[0])
	}
	// At u=0.3 with Poisson cross the entropy feature still detects well
	// (matches fig6 at the same point).
	if ent[0] < 0.75 {
		t.Errorf("Poisson-cross entropy detection = %v, want > 0.75", ent[0])
	}
}

// The IQR extension behaves like the other second-order features: strong
// detection against CIT at the gateway by n=1000.
func TestExtFeatures(t *testing.T) {
	tbl := runTable(t, "ext-features")
	iqr := col(tbl, "iqr_emp")
	ent := col(tbl, "ent_emp")
	last := len(iqr) - 1
	if iqr[last] < 0.85 {
		t.Errorf("IQR detection at n=1000 = %v, want > 0.85", iqr[last])
	}
	if ent[last] < 0.9 {
		t.Errorf("entropy detection at n=1000 = %v", ent[last])
	}
}

// Fast-path and exact-router detection rates must agree at the attack
// level — the end-to-end justification for the stationary sampler.
func TestValidateExactNet(t *testing.T) {
	tbl := runTable(t, "validate-exactnet")
	varE := col(tbl, "var_emp")
	entE := col(tbl, "ent_emp")
	if len(varE) != 2 {
		t.Fatalf("expected fast and exact rows")
	}
	if d := varE[0] - varE[1]; d < -0.12 || d > 0.12 {
		t.Errorf("variance detection: fast %v vs exact %v", varE[0], varE[1])
	}
	if d := entE[0] - entE[1]; d < -0.12 || d > 0.12 {
		t.Errorf("entropy detection: fast %v vs exact %v", entE[0], entE[1])
	}
}

// The online extension: the anytime adversary breaks CIT with large
// windows almost surely, and the decision cost is measured in stream
// seconds consistent with windows × n × τ.
func TestExtOnline(t *testing.T) {
	tbl := runTable(t, "ext-online")
	ns := col(tbl, "n")
	det := col(tbl, "anytime_det")
	decided := col(tbl, "decided_frac")
	meanW := col(tbl, "mean_windows_to_dec")
	meanS := col(tbl, "mean_seconds_to_dec")
	last := len(ns) - 1
	if det[last] < 0.9 {
		t.Errorf("anytime detection at n=%v = %v, want > 0.9", ns[last], det[last])
	}
	if decided[last] < 0.8 {
		t.Errorf("decided fraction at n=%v = %v, want > 0.8", ns[last], decided[last])
	}
	for i := range ns {
		if decided[i] < 0 || decided[i] > 1 {
			t.Fatalf("decided fraction %v out of range", decided[i])
		}
		if decided[i] > 0 {
			if meanW[i] < 1 || meanW[i] > 12 {
				t.Errorf("n=%v: mean windows to decision = %v", ns[i], meanW[i])
			}
			// Stream time per window is ~ n·τ (PIAT mean is the padding
			// period, 10 ms).
			want := meanW[i] * ns[i] * 10e-3
			if meanS[i] < 0.7*want || meanS[i] > 1.3*want {
				t.Errorf("n=%v: mean seconds %v inconsistent with %v windows (~%v s)",
					ns[i], meanS[i], meanW[i], want)
			}
		}
	}
}

// The windowing ablation: for memoryless payload the i.i.d.-replica and
// continuous-stream protocols agree within Monte Carlo noise (the fast
// protocol's license), and accumulating evidence across windows never
// loses to single-window decisions.
func TestAblationWindowing(t *testing.T) {
	tbl := runTable(t, "ablation-windowing")
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 payload-model rows")
	}
	replica := col(tbl, "replica_det")
	stream := col(tbl, "stream_det")
	anytime := col(tbl, "anytime_det")
	if d := replica[0] - stream[0]; d < -0.1 || d > 0.1 {
		t.Errorf("poisson: replica %v vs stream %v differ beyond MC noise", replica[0], stream[0])
	}
	for i := range anytime {
		if anytime[i] < stream[i]-0.1 {
			t.Errorf("row %d: anytime %v falls below single-window %v", i, anytime[i], stream[i])
		}
	}
}

// Sweeps must be deterministic in the worker count: every point — and
// every Monte Carlo trial within a point — draws randomness only from its
// own seed, so the rendered tables are byte-identical at any parallelism
// width (1, 4, and all CPUs, including the nested trial workers).
func TestParallelDeterminism(t *testing.T) {
	render := func(tbl *Table) string {
		var sb strings.Builder
		if err := tbl.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, id := range []string{"fig6", "fig4b", "ext-online", "ext-active",
		"ablation-watermark-defenses"} {
		ref, err := Run(context.Background(), id, Options{Scale: 0.12, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		refText := render(ref)
		for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
			got, err := Run(context.Background(), id, Options{Scale: 0.12, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if text := render(got); text != refText {
				t.Fatalf("%s: table at Workers=%d differs from Workers=1:\n%s\nvs\n%s",
					id, workers, text, refText)
			}
		}
	}
}

func TestTableWriters(t *testing.T) {
	tbl := &Table{
		ID:      "demo",
		Title:   "demo table",
		Columns: []string{"x", "y"},
	}
	if err := tbl.AddRow(1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRow(2, 1e-7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRow(1, 2, 3); err == nil {
		t.Error("mismatched row accepted")
	}
	tbl.Notef("note %d", 42)

	var text bytes.Buffer
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"demo table", "note 42", "x", "y", "1e-07"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "x,y" {
		t.Errorf("csv output:\n%s", csv.String())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if (Options{Scale: 0.001}).windows(100) != 24 {
		t.Error("window floor broken")
	}
	if (Options{Scale: 2}.withDefaults()).windows(100) != 200 {
		t.Error("window scaling broken")
	}
}

// The disclosure experiment's headline claim: at every fixed population
// size, rounds-to-disclosure increases monotonically with the cover
// rate (and the residual anonymity of the adversary's estimate rises
// with it). Without cover, every population must disclose fully.
func TestExtDisclosureCoverMonotone(t *testing.T) {
	tbl := runTable(t, "ext-disclosure")
	users := col(tbl, "users")
	cover := col(tbl, "cover")
	disclosed := col(tbl, "disclosed_frac")
	rounds := col(tbl, "mean_rounds")
	anon := col(tbl, "mean_anonymity")
	perUsers := map[float64][]int{}
	for i := range users {
		perUsers[users[i]] = append(perUsers[users[i]], i)
	}
	if len(perUsers) < 2 {
		t.Fatalf("expected at least two population sizes, got %d", len(perUsers))
	}
	for n, idx := range perUsers {
		for k := 1; k < len(idx); k++ {
			i, j := idx[k-1], idx[k]
			if cover[j] <= cover[i] {
				t.Fatalf("users=%v: cover levels not ascending", n)
			}
			if rounds[j] <= rounds[i] {
				t.Errorf("users=%v: mean rounds %v at cover %v not above %v at cover %v",
					n, rounds[j], cover[j], rounds[i], cover[i])
			}
			if anon[j] <= anon[i] {
				t.Errorf("users=%v: anonymity %v at cover %v not above %v at cover %v",
					n, anon[j], cover[j], anon[i], cover[i])
			}
		}
		// Cover can only hurt disclosure coverage, and without cover the
		// attack must disclose most targets (all of them in the smallest
		// population, where every target appears in plenty of rounds).
		for _, i := range idx[1:] {
			if disclosed[i] > disclosed[idx[0]] {
				t.Errorf("users=%v: disclosed %v at cover %v exceeds %v at cover 0",
					n, disclosed[i], cover[i], disclosed[idx[0]])
			}
		}
		if disclosed[idx[0]] < 0.75 {
			t.Errorf("users=%v: cover 0 disclosed only %v of targets", n, disclosed[idx[0]])
		}
		if n == 24 && disclosed[idx[0]] != 1 {
			t.Errorf("users=24: cover 0 disclosed %v of targets, want all", disclosed[idx[0]])
		}
	}
}

// The cascade extension's headline claim: end-to-end correlation
// accuracy degrades — and the degree of anonymity rises — with the hop
// count at matched per-hop overhead. The unpadded anchor loses every
// flow; one CIT hop erases the throughput fingerprint but leaks the rate
// class at the exit; the second hop erases the class leak too (its
// blocking channel sees the upstream's constant 1/τ rate, not the
// payload rate).
func TestExtCascadeHopsProtect(t *testing.T) {
	tbl := runTable(t, "ext-cascade")
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 hop-count rows, got %d", len(tbl.Rows))
	}
	hops := col(tbl, "hops")
	acc := col(tbl, "flow_acc")
	classAcc := col(tbl, "class_acc")
	anon := col(tbl, "anonymity")
	corr := col(tbl, "mean_corr_true")
	pps := col(tbl, "route_pps")
	dummy := col(tbl, "dummy_frac")
	// Unpadded anchor: every flow matched, fingerprint intact, no
	// residual anonymity.
	if acc[0] != 1 || corr[0] < 0.99 || anon[0] > 0.2 {
		t.Errorf("unpadded anchor: acc %v corr %v anon %v", acc[0], corr[0], anon[0])
	}
	// Correlation accuracy degrades with hop count...
	if acc[1] > 0.5 || acc[3] > acc[1] {
		t.Errorf("flow accuracy should degrade with hops: %v", acc)
	}
	for i := 1; i < len(corr); i++ {
		if corr[i] > 0.3 || corr[i] < -0.3 {
			t.Errorf("hops=%v: padding should erase the fingerprint, corr %v", hops[i], corr[i])
		}
	}
	// ...the first hop still leaks the class, deeper routes do not...
	if classAcc[1] < 0.85 {
		t.Errorf("one hop should leak the class at the exit, class acc %v", classAcc[1])
	}
	if classAcc[3] > 0.7 || classAcc[1] < classAcc[3]+0.2 {
		t.Errorf("class leak should die with depth: %v", classAcc)
	}
	// ...and the degree of anonymity rises with every hop.
	for i := 1; i < len(anon); i++ {
		if anon[i] < anon[i-1]-0.02 {
			t.Errorf("anonymity not rising with hops: %v", anon)
		}
	}
	if anon[1] < anon[0]+0.2 || anon[3] < anon[1]+0.1 {
		t.Errorf("anonymity gains too small: %v", anon)
	}
	// Matched overhead: every hop adds a 100 pps padded link; dummies are
	// minted at the entry only, so the route-level dummy fraction dilutes
	// with depth.
	for i := 1; i < len(pps); i++ {
		if want := 100 * hops[i]; pps[i] < want-2 || pps[i] > want+2 {
			t.Errorf("hops=%v: route pps %v, want ~%v", hops[i], pps[i], want)
		}
		if dummy[i] >= dummy[i-1] && i > 1 {
			t.Errorf("dummy fraction should dilute with depth: %v", dummy)
		}
	}
	if dummy[1] < 0.6 || dummy[1] > 0.85 {
		t.Errorf("entry-hop dummy fraction %v, want ~0.75", dummy[1])
	}
}

// The hop-policy ablation: at equal bandwidth, every timer-entry route
// protects both the flow and (with depth 2) mostly the class, and hop
// order matters — a batching mix in front of a timer hop re-introduces
// the class leak, because the mix's payload-rate bursts drive the
// downstream timer's blocking channel.
func TestAblationHopPolicies(t *testing.T) {
	tbl := runTable(t, "ablation-hop-policies")
	if len(tbl.Rows) != 5 {
		t.Fatalf("expected 5 route rows, got %d", len(tbl.Rows))
	}
	acc := col(tbl, "flow_acc")
	classAcc := col(tbl, "class_acc")
	anon := col(tbl, "anonymity")
	pps := col(tbl, "route_pps")
	const citcit, vitvit, citvit, citmix, mixcit = 0, 1, 2, 3, 4
	for i, a := range acc {
		if a > 0.5 {
			t.Errorf("route %d: two padded hops should break per-flow matching, acc %v", i, a)
		}
	}
	// Equal bandwidth for the timer-entry routes; the mix-entry route
	// pads nothing and rides cheaper.
	for _, i := range []int{citcit, vitvit, citvit, citmix} {
		if pps[i] < 195 || pps[i] > 205 {
			t.Errorf("route %d: pps %v, want ~200", i, pps[i])
		}
	}
	if pps[mixcit] > 150 {
		t.Errorf("mix-entry route pps %v should undercut the timer routes", pps[mixcit])
	}
	// Hop order: mix in front of the timer leaks the class; timer-entry
	// routes mostly suppress it.
	if classAcc[mixcit] < 0.85 {
		t.Errorf("MIX8+CIT should leak the class, class acc %v", classAcc[mixcit])
	}
	for _, i := range []int{citcit, vitvit, citvit, citmix} {
		if classAcc[i] > 0.75 {
			t.Errorf("route %d: timer-entry route leaks the class, acc %v", i, classAcc[i])
		}
		if classAcc[mixcit] < classAcc[i]+0.2 {
			t.Errorf("mix-entry leak (%v) should clearly exceed route %d (%v)",
				classAcc[mixcit], i, classAcc[i])
		}
	}
	if anon[mixcit] >= anon[citcit] {
		t.Errorf("the leaky mix-entry route should be least anonymous: %v vs %v",
			anon[mixcit], anon[citcit])
	}
}

// The population padding ablation: the unpadded anchor loses every flow,
// timer policies erase the throughput fingerprint (correlation ≈ 0,
// matching near chance) while CIT's variance leak still identifies the
// class, and the batching mix leaves the fingerprint on the wire even at
// matched overhead.
func TestAblationPopulationPadding(t *testing.T) {
	tbl := runTable(t, "ablation-population-padding")
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 policy rows, got %d", len(tbl.Rows))
	}
	acc := col(tbl, "flow_acc")
	classAcc := col(tbl, "class_acc")
	corr := col(tbl, "mean_corr_true")
	const none, cit, vit, mix = 0, 1, 2, 3
	if acc[none] != 1 || corr[none] < 0.99 {
		t.Errorf("unpadded anchor should be fully correlated: acc %v corr %v", acc[none], corr[none])
	}
	for _, p := range []int{cit, vit} {
		if acc[p] > 0.5 {
			t.Errorf("policy %d: timer padding should break per-flow matching, acc %v", p, acc[p])
		}
		if corr[p] > 0.3 || corr[p] < -0.3 {
			t.Errorf("policy %d: timer padding should erase the fingerprint, corr %v", p, corr[p])
		}
	}
	if classAcc[cit] < 0.7 {
		t.Errorf("CIT's variance leak should identify the class, class acc %v", classAcc[cit])
	}
	if acc[mix] < 0.9 || corr[mix] < 0.8 {
		t.Errorf("batching should leave the fingerprint on the wire: acc %v corr %v", acc[mix], corr[mix])
	}
}

// The active watermark headline: detection falls monotonically from the
// unpadded anchor through CIT/VIT and the batching mix to the two-hop
// cascade at every chaff amplitude, and rises with amplitude within
// every policy. The cascade destroys the watermark outright — the inner
// hop's timer only ever sees the entry hop's constant 1/tau.
func TestExtActivePolicyTiers(t *testing.T) {
	tbl := runTable(t, "ext-active")
	if len(tbl.Rows) != 15 {
		t.Fatalf("expected 5 policies x 3 amplitudes = 15 rows, got %d", len(tbl.Rows))
	}
	det := col(tbl, "det_rate")
	classAcc := col(tbl, "class_acc")
	anon := col(tbl, "anonymity")
	pps := col(tbl, "route_pps")
	inj := col(tbl, "injected_pps")
	const policies, amps = 5, 3
	const none, cit, vit, mix, casc = 0, 1, 2, 3, 4
	at := func(v []float64, p, a int) float64 { return v[p*amps+a] }
	for a := 0; a < amps; a++ {
		// Countermeasure tiers, non-increasing at matched overhead.
		for p := 1; p < policies; p++ {
			if at(det, p, a) > at(det, p-1, a) {
				t.Errorf("amp %d: policy %d detects more than policy %d (%v > %v)",
					a, p, p-1, at(det, p, a), at(det, p-1, a))
			}
		}
		if at(det, none, a) < 0.9 {
			t.Errorf("amp %d: unpadded anchor should be detected, det %v", a, at(det, none, a))
		}
		if at(det, casc, a) != 0 {
			t.Errorf("amp %d: the cascade should destroy the watermark, det %v", a, at(det, casc, a))
		}
		if at(anon, casc, a) < at(anon, none, a)+0.2 {
			t.Errorf("amp %d: cascade anonymity %v should clearly exceed the anchor's %v",
				a, at(anon, casc, a), at(anon, none, a))
		}
	}
	for p := 0; p < policies; p++ {
		// More chaff, more signal (weakly) — and a higher attacker bill.
		for a := 1; a < amps; a++ {
			if at(det, p, a) < at(det, p, a-1) {
				t.Errorf("policy %d: detection should rise with amplitude: %v < %v",
					p, at(det, p, a), at(det, p, a-1))
			}
			if at(inj, p, a) <= at(inj, p, a-1) {
				t.Errorf("policy %d: injected pps should rise with amplitude", p)
			}
		}
		// Matched overhead: timers hold the 100 pps wire rate, the
		// cascade pays double, the anchor forwards payload+chaff only.
		wantPPS := 100.0
		switch p {
		case none:
			if at(pps, p, 0) > 50 {
				t.Errorf("unpadded route pps %v, want payload-only", at(pps, p, 0))
			}
			continue
		case mix:
			wantPPS = 110 // cover tops users up toward 100 pps, plus chaff
		case casc:
			wantPPS = 200
		}
		for a := 0; a < amps; a++ {
			if got := at(pps, p, a); got < wantPPS-12 || got > wantPPS+12 {
				t.Errorf("policy %d amp %d: route pps %v, want ~%v", p, a, got, wantPPS)
			}
		}
	}
	// The Raw anchor trains no classifier; padded policies still leak
	// class structure through the exit tap at low depth.
	if classAcc[0] != 0 {
		t.Errorf("raw anchor class acc %v, want 0", classAcc[0])
	}
	if at(classAcc, cit, 0) < 0.6 {
		t.Errorf("single CIT hop should leak the class, acc %v", at(classAcc, cit, 0))
	}
}

// The watermark-defense ablation: one CIT hop leaks keyed chaff through
// its blocking channel, any re-padding second hop kills it at equal
// bandwidth — except a mix *in front of* the timer, which forwards the
// chaff rate pattern into the downstream blocking channel. Delay-jitter
// watermarks die at the first re-timing hop regardless of policy.
func TestAblationWatermarkDefenses(t *testing.T) {
	tbl := runTable(t, "ablation-watermark-defenses")
	if len(tbl.Rows) != 10 {
		t.Fatalf("expected 5 routes x 2 modes = 10 rows, got %d", len(tbl.Rows))
	}
	det := col(tbl, "det_rate")
	inj := col(tbl, "injected_pps")
	delay := col(tbl, "added_delay_ms")
	pps := col(tbl, "route_pps")
	const modes = 2
	const cit, citcit, vitvit, citmix, mixcit = 0, 1, 2, 3, 4
	const chaff, jitter = 0, 1
	at := func(v []float64, r, m int) float64 { return v[r*modes+m] }
	// Chaff mode: the single hop and the mix-entry route leak, the other
	// two-hop routes protect.
	if at(det, cit, chaff) < 0.4 {
		t.Errorf("single CIT hop should leak chaff, det %v", at(det, cit, chaff))
	}
	if at(det, mixcit, chaff) < 0.5 {
		t.Errorf("MIX8+CIT should forward the chaff pattern into the timer, det %v",
			at(det, mixcit, chaff))
	}
	for _, r := range []int{citcit, vitvit, citmix} {
		if at(det, r, chaff) > 0.1 {
			t.Errorf("route %d: a re-padding second hop should kill the chaff watermark, det %v",
				r, at(det, r, chaff))
		}
		if at(det, mixcit, chaff) < at(det, r, chaff)+0.3 {
			t.Errorf("hop order should decide the leak: MIX8+CIT %v vs route %d %v",
				at(det, mixcit, chaff), r, at(det, r, chaff))
		}
	}
	// Delay mode: the first re-timing hop erases the imprinted timing on
	// every route, and the injection costs latency, not packets.
	for r := cit; r <= mixcit; r++ {
		if at(det, r, jitter) > 0.1 {
			t.Errorf("route %d: delay watermark should die at the first re-timing hop, det %v",
				r, at(det, r, jitter))
		}
		if at(inj, r, jitter) != 0 {
			t.Errorf("route %d: delay mode injects no packets, got %v pps", r, at(inj, r, jitter))
		}
		if at(delay, r, jitter) < 20 {
			t.Errorf("route %d: delay mode should cost visible latency, got %v ms", r, at(delay, r, jitter))
		}
		if at(delay, r, chaff) != 0 {
			t.Errorf("route %d: chaff mode imposes no delay, got %v ms", r, at(delay, r, chaff))
		}
	}
	// Equal bandwidth on the timer-entry routes; the mix-entry route
	// pads nothing and rides cheaper.
	for _, r := range []int{citcit, vitvit, citmix} {
		for m := 0; m < modes; m++ {
			if at(pps, r, m) < 195 || at(pps, r, m) > 205 {
				t.Errorf("route %d mode %d: pps %v, want ~200", r, m, at(pps, r, m))
			}
		}
	}
	if at(pps, mixcit, chaff) > 150 {
		t.Errorf("mix-entry route pps %v should undercut the timer routes", at(pps, mixcit, chaff))
	}
}
