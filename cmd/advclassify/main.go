// Command advclassify is the stand-alone adversary: it trains the paper's
// Bayes classifier from per-class PIAT training traces and classifies
// evaluation traces, reporting the detection rate and confusion matrix.
//
// Usage:
//
//	advclassify -train low-train.piat,high-train.piat \
//	            -eval  low-eval.piat,high-eval.piat \
//	            -feature entropy -window 1000
//
// Training and evaluation traces are given in class order; evaluation
// trace i is assumed to carry class i's traffic (its windows' true labels).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"linkpad/internal/adversary"
	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "advclassify:", err)
		os.Exit(1)
	}
}

func parseFeature(name string) (analytic.Feature, error) {
	switch name {
	case "mean":
		return analytic.FeatureMean, nil
	case "variance":
		return analytic.FeatureVariance, nil
	case "entropy":
		return analytic.FeatureEntropy, nil
	default:
		return 0, fmt.Errorf("unknown feature %q (mean, variance, entropy)", name)
	}
}

// options collects the tool's parameters; classify is the testable core.
type options struct {
	trainPaths []string
	evalPaths  []string
	feature    analytic.Feature
	window     int
	binWidth   float64
}

func run() error {
	var (
		trainArg = flag.String("train", "", "comma-separated training traces, one per class")
		evalArg  = flag.String("eval", "", "comma-separated evaluation traces, one per class")
		featArg  = flag.String("feature", "entropy", "feature statistic: mean, variance or entropy")
		window   = flag.Int("window", 1000, "sample size n (PIATs per classified window)")
		binWidth = flag.Float64("binwidth", 0, "entropy histogram bin width in seconds (0 = default 2us)")
	)
	flag.Parse()

	if *trainArg == "" || *evalArg == "" {
		return fmt.Errorf("need -train and -eval")
	}
	feature, err := parseFeature(*featArg)
	if err != nil {
		return err
	}
	return classify(os.Stdout, options{
		trainPaths: strings.Split(*trainArg, ","),
		evalPaths:  strings.Split(*evalArg, ","),
		feature:    feature,
		window:     *window,
		binWidth:   *binWidth,
	})
}

// classify trains the Bayes adversary on the training traces and reports
// the confusion matrix of the evaluation traces to w.
func classify(w io.Writer, opts options) error {
	if opts.window < 2 {
		return fmt.Errorf("window size must be at least 2 (got %d)", opts.window)
	}
	if len(opts.trainPaths) < 2 {
		return fmt.Errorf("need at least two training traces (one per class)")
	}
	if len(opts.evalPaths) != len(opts.trainPaths) {
		return fmt.Errorf("need one evaluation trace per class (%d != %d)",
			len(opts.evalPaths), len(opts.trainPaths))
	}

	labels := make([]string, len(opts.trainPaths))
	train := make([][]float64, len(opts.trainPaths))
	minWindows := int(^uint(0) >> 1)
	for i, p := range opts.trainPaths {
		meta, piats, err := trace.ReadFile(p)
		if err != nil {
			return fmt.Errorf("training trace %s: %w", p, err)
		}
		labels[i] = meta["class"]
		if labels[i] == "" {
			labels[i] = fmt.Sprintf("class%d", i)
		}
		train[i] = piats
		if w := len(piats) / opts.window; w < minWindows {
			minWindows = w
		}
	}
	if minWindows < 2 {
		return fmt.Errorf("training traces too short for window size %d", opts.window)
	}

	// Training and evaluation reduce consecutive windows of each trace
	// through the same streaming pipeline.
	exts := []adversary.Extractor{{Feature: opts.feature, EntropyBinWidth: opts.binWidth}}
	features := func(piats []float64, windows int) ([][]float64, error) {
		replay := func(int) (adversary.PIATSource, error) { return adversary.NewReplay(piats), nil }
		return adversary.SessionFeatureMatrix(replay, exts, 1, windows, opts.window, 1)
	}
	mats := make([][][]float64, len(train))
	for i, piats := range train {
		mat, err := features(piats, minWindows)
		if err != nil {
			return err
		}
		mats[i] = mat
	}
	cls, err := adversary.Fit(labels, mats, false)
	if err != nil {
		return err
	}

	cm := bayes.NewConfusion(labels)
	var preds []int
	for class, p := range opts.evalPaths {
		_, piats, err := trace.ReadFile(p)
		if err != nil {
			return fmt.Errorf("evaluation trace %s: %w", p, err)
		}
		windows := len(piats) / opts.window
		if windows == 0 {
			return fmt.Errorf("evaluation trace %s shorter than one window", p)
		}
		mat, err := features(piats, windows)
		if err != nil {
			return err
		}
		preds = cls[0].ClassifyBatch(mat[0], preds)
		for _, pred := range preds {
			cm.Add(class, pred)
		}
	}
	fmt.Fprintf(w, "feature: %s  window: %d  training windows/class: %d\n",
		opts.feature, opts.window, minWindows)
	fmt.Fprintln(w, cm.String())
	return nil
}
