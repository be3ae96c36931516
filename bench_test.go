// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// and logs the full result table (visible with -v); key scalar outcomes
// are also attached as custom benchmark metrics so regressions in the
// reproduced *shape* (who wins, by how much, where crossovers fall) show
// up in plain `go test -bench` output.
//
// The Monte Carlo scale is reduced relative to the CLI defaults so the
// whole suite completes in minutes; run `linkpadsim -exp all -scale 1`
// for full-fidelity tables.
package linkpad_test

import (
	"context"
	"strings"
	"testing"

	"linkpad"
)

// benchScale balances statistical resolution against bench runtime.
const benchScale = 0.5

// runFigure executes one experiment per benchmark iteration, logs the
// table once, and reports the requested (column, row) cells as metrics.
// Allocation metrics are reported so regressions in the allocation-free
// attack pipeline (adversary.FeatureMatrix reduces windows through
// per-worker reusable MultiPipelines) are visible in plain benchmark
// output.
func runFigure(b *testing.B, id string, metrics map[string][2]string) {
	b.Helper()
	b.ReportAllocs()
	var tbl *linkpad.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = linkpad.RunExperiment(context.Background(), id, linkpad.ExperimentOptions{
			Scale: benchScale,
			Seed:  uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
	for name, sel := range metrics {
		v, ok := cell(tbl, sel[0], sel[1])
		if !ok {
			b.Fatalf("metric %s: no cell (%s, %s)", name, sel[0], sel[1])
		}
		b.ReportMetric(v, name)
	}
}

// cell returns the value in the named column at the row whose first
// column textually matches rowKey ("first"/"last" select endpoints).
func cell(tbl *linkpad.ExperimentTable, column, rowKey string) (float64, bool) {
	colIdx := -1
	for j, c := range tbl.Columns {
		if c == column {
			// First match wins: keep scanning no further so a duplicated
			// column name cannot silently redirect the metric to the last
			// occurrence.
			colIdx = j
			break
		}
	}
	if colIdx < 0 || len(tbl.Rows) == 0 {
		return 0, false
	}
	switch rowKey {
	case "first":
		return tbl.Rows[0][colIdx], true
	case "last":
		return tbl.Rows[len(tbl.Rows)-1][colIdx], true
	}
	return 0, false
}

// BenchmarkFig4a regenerates the PIAT PDFs under CIT (paper Fig. 4a).
func BenchmarkFig4a(b *testing.B) {
	runFigure(b, "fig4a", map[string][2]string{
		"density10_edge/s": {"density_10pps", "first"},
	})
}

// BenchmarkFig4b regenerates detection rate vs sample size (paper
// Fig. 4b). The headline metrics: entropy and variance detection at the
// largest sample size (paper: ≈1.0), mean detection (paper: ≈0.5).
func BenchmarkFig4b(b *testing.B) {
	runFigure(b, "fig4b", map[string][2]string{
		"ent_at_nmax":  {"ent_emp", "last"},
		"var_at_nmax":  {"var_emp", "last"},
		"mean_at_nmax": {"mean_emp", "last"},
	})
}

// BenchmarkFig5a regenerates detection vs σ_T under VIT (paper Fig. 5a):
// detection at σ_T = 0 is ≈1, at σ_T = 100 µs ≈ 0.5.
func BenchmarkFig5a(b *testing.B) {
	runFigure(b, "fig5a", map[string][2]string{
		"ent_at_cit":      {"ent_emp", "first"},
		"ent_at_sigmamax": {"ent_emp", "last"},
	})
}

// BenchmarkFig5b regenerates the theoretical n(99%) curve (paper
// Fig. 5b): at σ_T = 1 ms the required sample size exceeds 1e11.
func BenchmarkFig5b(b *testing.B) {
	runFigure(b, "fig5b", map[string][2]string{
		"n99var_at_1ms": {"n99_variance", "last"},
	})
}

// BenchmarkFig6 regenerates detection vs link utilization (paper Fig. 6):
// entropy stays ≈0.7 even at 50% utilization while variance falls harder.
func BenchmarkFig6(b *testing.B) {
	runFigure(b, "fig6", map[string][2]string{
		"ent_at_umax": {"ent_emp", "last"},
		"var_at_umax": {"var_emp", "last"},
	})
}

// BenchmarkFig8a regenerates the 24 h campus sweep (paper Fig. 8a):
// detection stays high all day.
func BenchmarkFig8a(b *testing.B) {
	runFigure(b, "fig8a", map[string][2]string{
		"ent_at_midnight": {"ent_emp", "first"},
	})
}

// BenchmarkFig8b regenerates the 24 h WAN sweep (paper Fig. 8b):
// detection is depressed by congestion but recovers at night.
func BenchmarkFig8b(b *testing.B) {
	runFigure(b, "fig8b", map[string][2]string{
		"ent_at_midnight": {"ent_emp", "first"},
	})
}

// BenchmarkExtMultiRate regenerates the §6 multi-rate extension.
func BenchmarkExtMultiRate(b *testing.B) {
	runFigure(b, "multirate", map[string][2]string{
		"recall_class0": {"recall", "first"},
		"recall_class3": {"recall", "last"},
	})
}

// BenchmarkAblationBinWidth sweeps the entropy estimator's bin width.
func BenchmarkAblationBinWidth(b *testing.B) {
	runFigure(b, "ablation-binwidth", map[string][2]string{
		"ent_finest":   {"ent_emp", "first"},
		"ent_coarsest": {"ent_emp", "last"},
	})
}

// BenchmarkAblationTraining compares KDE against parametric training.
func BenchmarkAblationTraining(b *testing.B) {
	runFigure(b, "ablation-training", map[string][2]string{
		"kde_entropy": {"kde_emp", "last"},
	})
}

// BenchmarkAblationPayload swaps payload arrival models.
func BenchmarkAblationPayload(b *testing.B) {
	runFigure(b, "ablation-payload", map[string][2]string{
		"ent_poisson": {"ent_emp", "first"},
		"ent_onoff":   {"ent_emp", "last"},
	})
}

// BenchmarkAblationTap degrades the adversary's capture.
func BenchmarkAblationTap(b *testing.B) {
	runFigure(b, "ablation-tap", map[string][2]string{
		"ent_perfect_tap": {"ent_emp", "first"},
	})
}

// BenchmarkAblationTheoryGap quantifies empirical-vs-theorem gaps.
func BenchmarkAblationTheoryGap(b *testing.B) {
	runFigure(b, "ablation-theorygap", map[string][2]string{
		"emp_at_cit":    {"ent_emp", "first"},
		"theory_at_cit": {"ent_theory", "first"},
	})
}

// BenchmarkBaselinePolicies compares CIT / VIT / adaptive masking on
// security, bandwidth and QoS.
func BenchmarkBaselinePolicies(b *testing.B) {
	runFigure(b, "baseline-policies", map[string][2]string{
		"mean_det_vs_cit":      {"mean_emp", "first"},
		"mean_det_vs_adaptive": {"mean_emp", "last"},
	})
}

// BenchmarkExtSizes regenerates the packet-size camouflage study.
func BenchmarkExtSizes(b *testing.B) {
	runFigure(b, "ext-sizes", map[string][2]string{
		"det_unpadded":     {"detection", "first"},
		"det_constant_pad": {"detection", "last"},
	})
}

// BenchmarkExtFeatures compares variance/entropy/IQR features.
func BenchmarkExtFeatures(b *testing.B) {
	runFigure(b, "ext-features", map[string][2]string{
		"iqr_at_nmax": {"iqr_emp", "last"},
	})
}

// BenchmarkValidateExactNet cross-validates the fast network path
// against the exact per-packet router simulation.
func BenchmarkValidateExactNet(b *testing.B) {
	runFigure(b, "validate-exactnet", map[string][2]string{
		"ent_fast":  {"ent_emp", "first"},
		"ent_exact": {"ent_emp", "last"},
	})
}

// BenchmarkAblationCrossModel sweeps cross-traffic burstiness through the
// exact router.
func BenchmarkAblationCrossModel(b *testing.B) {
	runFigure(b, "ablation-crossmodel", map[string][2]string{
		"ent_poisson_cross": {"ent_emp", "first"},
		"ent_train_cross":   {"ent_emp", "last"},
	})
}

// BenchmarkExtOnline runs the continuous-stream anytime adversary across
// window sizes.
func BenchmarkExtOnline(b *testing.B) {
	runFigure(b, "ext-online", map[string][2]string{
		"anytime_at_nmax": {"anytime_det", "last"},
		"sec_to_dec_nmax": {"mean_seconds_to_dec", "last"},
	})
}

// BenchmarkAblationWindowing compares the i.i.d.-replica and
// continuous-stream window protocols.
func BenchmarkAblationWindowing(b *testing.B) {
	runFigure(b, "ablation-windowing", map[string][2]string{
		"replica_poisson": {"replica_det", "first"},
		"stream_onoff":    {"stream_det", "last"},
	})
}

// BenchmarkExtDisclosure measures the population engine's statistical
// disclosure sweep (rounds-to-disclosure vs population size and cover).
func BenchmarkExtDisclosure(b *testing.B) {
	runFigure(b, "ext-disclosure", map[string][2]string{
		"rounds_n24_c0": {"mean_rounds", "first"},
		"anon_n96_c4":   {"mean_anonymity", "last"},
	})
}

// BenchmarkExtSDAArmsRace runs the 27-cell SDA league (estimator × mix ×
// dummy policy). Its ML cells under adaptive dummies refresh EM every
// round, which makes it the heaviest runner of the trajectory.
func BenchmarkExtSDAArmsRace(b *testing.B) {
	runFigure(b, "ext-sda-arms-race", map[string][2]string{
		"rounds_classic_threshold_none": {"mean_rounds", "first"},
		"anon_ml_timed_adaptive":        {"mean_anonymity", "last"},
	})
}

// BenchmarkAblationPopulationPadding measures the per-flow correlation
// attack across padding policies at matched overhead.
func BenchmarkAblationPopulationPadding(b *testing.B) {
	runFigure(b, "ablation-population-padding", map[string][2]string{
		"flow_acc_none": {"flow_acc", "first"},
		"flow_acc_mix":  {"flow_acc", "last"},
	})
}

// BenchmarkExtCascade measures the end-to-end correlation attack across
// route lengths (unpadded anchor through three re-padding hops).
func BenchmarkExtCascade(b *testing.B) {
	runFigure(b, "ext-cascade", map[string][2]string{
		"flow_acc_raw":    {"flow_acc", "first"},
		"anon_3hops":      {"anonymity", "last"},
		"class_acc_3hops": {"class_acc", "last"},
	})
}

// BenchmarkAblationHopPolicies compares homogeneous against mixed
// per-hop policies on two-hop routes at equal bandwidth.
func BenchmarkAblationHopPolicies(b *testing.B) {
	runFigure(b, "ablation-hop-policies", map[string][2]string{
		"class_acc_citcit": {"class_acc", "first"},
		"class_acc_mixcit": {"class_acc", "last"},
	})
}

// BenchmarkExtActive measures the active chaff watermark across padding
// policies at matched overhead (unpadded anchor through the two-hop
// cascade).
func BenchmarkExtActive(b *testing.B) {
	runFigure(b, "ext-active", map[string][2]string{
		"det_none_amp10": {"det_rate", "first"},
		"det_casc_amp40": {"det_rate", "last"},
	})
}

// BenchmarkAblationWatermarkDefenses measures both watermark mechanisms
// against two-hop routes at equal bandwidth.
func BenchmarkAblationWatermarkDefenses(b *testing.B) {
	runFigure(b, "ablation-watermark-defenses", map[string][2]string{
		"chaff_det_cit":    {"det_rate", "first"},
		"delay_det_mixcit": {"det_rate", "last"},
	})
}
