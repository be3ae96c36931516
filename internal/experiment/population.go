package experiment

import (
	"linkpad/internal/core"
	"linkpad/internal/population"
)

func init() {
	registerCells("ext-disclosure", extDisclosureCells)
	registerCells("ablation-population-padding", ablationPopulationPaddingCells)
}

// disclosureRounds resolves the SDA observation budget. Unlike window
// counts, the budget must stay large enough to cover the slowest cell of
// the sweep or every high-cover cell would censor at the same value;
// scaling below the floor would flatten exactly the monotonicity the
// experiment exists to show.
func disclosureRounds(o Options) int {
	r := int(8000 * o.Scale)
	if r < 2500 {
		r = 2500
	}
	return r
}

// disclosurePopulations and disclosureCovers span the ext-disclosure
// sweep grid; cell i is (population i/len(covers), cover i%len(covers)).
var (
	disclosurePopulations = []int{24, 48, 96}
	disclosureCovers      = []float64{0, 1, 2, 4}
)

// extDisclosureCells measures the statistical disclosure attack against
// the shared batching mix: rounds-to-disclosure (how many mix rounds
// until the adversary identifies a target's contact set) as a function
// of the population size and the cover-traffic rate. Cover traffic is
// the population-scale analogue of link padding — dummy messages at a
// multiple of each user's payload rate, delivered to random recipients —
// and it resists SDA twice over: the target's observable sends carry
// less real signal and everyone else's dummies brighten the background.
// Rounds-to-disclosure grows monotonically with the cover rate at every
// population size; larger populations are also slower to disclose (the
// target appears in fewer rounds). Registered as a cell experiment:
// every (population, cover) cell is a pure function of (Options, cell),
// which is what lets linkpadsim checkpoint and resume the sweep.
var extDisclosureCells = &cellExperiment{
	title: "Statistical disclosure against the population mix: rounds-to-disclosure vs population size and cover rate",
	columns: []string{"users", "cover", "disclosed_frac", "mean_rounds",
		"mean_rounds_with", "mean_anonymity"},
	ncells: func(Options) int { return len(disclosurePopulations) * len(disclosureCovers) },
	run: func(o Options, cell int) ([]float64, error) {
		sys, err := core.NewSystem(labConfig(o))
		if err != nil {
			return nil, err
		}
		n := disclosurePopulations[cell/len(disclosureCovers)]
		cover := disclosureCovers[cell%len(disclosureCovers)]
		res, err := runDisclosure(o, sys, core.PopulationSpec{
			Users:      n,
			Recipients: 60,
			CoverRate:  cover,
		}, population.DisclosureConfig{
			MaxRounds: disclosureRounds(o),
		})
		if err != nil {
			return nil, err
		}
		var roundsWith float64
		for _, tg := range res.Targets {
			roundsWith += float64(tg.RoundsWith)
		}
		roundsWith /= float64(len(res.Targets))
		return []float64{float64(n), cover, res.DisclosedFrac, res.MeanRounds,
			roundsWith, res.MeanAnonymity}, nil
	},
	notes: func(o Options, t *Table) {
		t.Notef("batch 8, 60 recipients, 3 contacts/user at weight 0.7, 8 targets spread over the population")
		t.Notef("budget %d rounds; undisclosed targets censor mean_rounds at the budget", disclosureRounds(o))
		t.Notef("cover = dummy rate as a multiple of the user's payload rate; dummies go to uniform recipients")
		t.Notef("mean_anonymity: normalized entropy of the adversary's final recipient estimate (1 = uniform)")
	},
}

// populationPaddingPolicies is the ablation-population-padding sweep
// axis.
var populationPaddingPolicies = []struct {
	code  float64
	name  string
	mut   func(*core.Config)
	raw   bool
	cover float64 // CoverToPPS matching the timer policies' egress rate
}{
	{0, "NONE", func(*core.Config) {}, true, 0},
	{1, "CIT", func(*core.Config) {}, false, 0},
	{2, "VIT-30us", func(c *core.Config) { c.SigmaT = 30e-6 }, false, 0},
	{3, "MIX-8", func(c *core.Config) { c.Mix = &core.MixSpec{K: 8} }, false, 100},
}

// ablationPopulationPaddingCells compares the padding policies at
// matched egress bandwidth against the per-flow population attack:
// every user's link emits ~100 pps whether the policy is CIT, VIT, or a
// per-user batching mix whose users add cover up to 100 pps (the raw,
// unpadded link is the no-countermeasure anchor). The attack combines
// the throughput fingerprint (windowed rate correlation) with the
// paper's PIAT class features. Timer policies erase the throughput
// fingerprint — the flow-level anonymity set collapses only to the rate
// class, and under VIT not even that — while batching leaves
// arrival-rate fluctuations on the wire, so the mix loses every flow at
// the same bandwidth price.
var ablationPopulationPaddingCells = &cellExperiment{
	title: "Per-flow correlation vs padding policy at matched overhead (24 users, 60 s flows)",
	columns: []string{"policy", "flow_acc", "class_acc", "mean_rank",
		"mean_corr_true"},
	ncells: func(Options) int { return len(populationPaddingPolicies) },
	run: func(o Options, cell int) ([]float64, error) {
		p := populationPaddingPolicies[cell]
		cfg := labConfig(o)
		p.mut(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		res, err := runFlowCorrelation(o, sys, core.PopulationSpec{
			Users:      24,
			Recipients: 60,
			CoverToPPS: p.cover,
		}, core.FlowCorrConfig{
			Duration:     cascadeDuration(o),
			Raw:          p.raw,
			Features:     secondOrderFeatures,
			TrainWindows: o.windows(120),
		})
		if err != nil {
			return nil, err
		}
		return []float64{p.code, res.Accuracy, res.ClassAccuracy,
			res.MeanRank, res.MeanCorrTrue}, nil
	},
	notes: func(o Options, t *Table) {
		for _, p := range populationPaddingPolicies {
			t.Notef("policy %d = %s", int(p.code), p.name)
		}
		t.Notef("matched overhead: CIT/VIT links emit 1/tau = 100 pps; mix users add cover up to 100 pps; NONE is the unpadded anchor")
		t.Notef("%.0f s flows, rate window 1 s, class features variance+entropy at window 200, %d training windows/class on population links",
			cascadeDuration(o), o.windows(120))
		t.Notef("mean_rank is the true user's rank in a flow's score ordering (1 = identified, %d/2 = chance within class)", 24)
		t.Notef("the SDA side of the trade-off is in ext-disclosure: batching mixes lose flows here but resist SDA only via cover")
	},
}
