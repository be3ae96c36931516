package linkpad_test

import (
	"context"
	"fmt"
	"log"

	"linkpad"
)

// Theorem 1: the sample-mean feature's detection rate depends only on the
// PIAT variance ratio r — exactly 0.5 (guessing) when the padding hides
// the rate (r = 1), and barely better at the calibrated CIT gateway's
// r ≈ 1.9.
func ExampleDetectionRateMean() {
	v1, err := linkpad.DetectionRateMean(1.0)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := linkpad.DetectionRateMean(1.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f %.3f\n", v1, v2)
	// Output: 0.500 0.577
}

// Fig. 5(b)'s quantity: how many PIATs the adversary must capture for a
// 99% detection rate with the sample-variance feature. At the CIT
// gateway's r ≈ 1.9 roughly a thousand suffice — which is why CIT fails.
func ExampleSampleSizeVariance() {
	n, err := linkpad.SampleSizeVariance(1.9, 0.99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.0f\n", n)
	// Output: 1005
}

// The paper's §5 laboratory system — CIT padding every 10 ms, payload at
// 10 or 40 pps with equal priors, the adversary tapping the sender
// gateway's output (the defender's worst case) — attacked with the three
// feature statistics at sample size n = 1000, each measured detection
// rate beside its closed-form theorem. Against CIT padding the variance
// and entropy features identify the payload rate almost surely, while the
// sample mean stays near guessing (paper Fig. 4b). One scenario measures
// every feature against the same Monte Carlo windows.
func ExampleNewSystem() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}
	features := []linkpad.Feature{
		linkpad.FeatureMean, linkpad.FeatureVariance, linkpad.FeatureEntropy,
	}
	sc, err := sys.Build(linkpad.AttackSetSpec{
		Attack:   linkpad.AttackConfig{WindowSize: 1000},
		Features: features,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := sc.Run(context.Background(), linkpad.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12s %12s %10s\n", "feature", "measured", "theorem", "r")
	for i, f := range features {
		res := out.AttackSet[i]
		fmt.Printf("%-10s %12.3f %12.3f %10.3f\n",
			f, res.DetectionRate, res.TheoryDetectionRate, res.EmpiricalR)
	}
	// Output:
	// feature        measured      theorem          r
	// mean              0.588        0.577      1.900
	// variance          1.000        0.990      1.900
	// entropy           1.000        0.990      1.900
}

// The design guideline: the smallest VIT σ_T (per Theorem 3) that caps an
// entropy-feature adversary at 60% detection with samples of 1000 PIATs.
func ExampleSystem_DesignVIT() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}
	sigmaT, err := sys.DesignVIT(linkpad.FeatureEntropy, 0.6, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma_T = %.1f us\n", sigmaT*1e6)
	// Output: sigma_T = 14.0 us
}

// The session protocol: one continuous padded stream per class, observed
// window by window. A raw Session's stream clock advances monotonically
// across windows — consecutive windows are slices of one timeline, unlike
// the i.i.d.-replica protocol. The anytime (SPRT-style) adversary trains
// on continuous sessions, then watches fresh ones until it is 99%
// confident, so the security metric becomes how long a deployment
// survives observation. Against CIT the decision lands after one window
// (ten seconds of traffic); timer variance stretches the time to
// detection and finally starves the decision entirely.
func ExampleSystem_Build_session() {
	cfg := linkpad.DefaultLabConfig()
	sys, err := linkpad.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := sys.NewSession(1, 42) // class 1 = 40 pps
	if err != nil {
		log.Fatal(err)
	}
	sess.WarmUp(100) // run the system past its cold-start transient
	fmt.Printf("continuous session of class %q, warm-up 100 packets (%.2f s of stream)\n",
		sys.Labels()[1], sess.Now())
	const n = 1000
	for w := 0; w < 3; w++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += sess.Source().Next()
		}
		fmt.Printf("  window %d: mean PIAT %.4f ms, stream clock now %6.2f s\n",
			w+1, sum/n*1e3, sess.Now())
	}

	fmt.Printf("%-22s %10s %10s %12s %14s\n",
		"system", "detection", "decided", "windows/dec", "seconds/dec")
	for _, tc := range []struct {
		name   string
		sigmaT float64
	}{
		{"CIT (sigma_T = 0)", 0},
		{"VIT sigma_T = 30us", 30e-6},
		{"VIT sigma_T = 100us", 100e-6},
	} {
		c := cfg
		c.SigmaT = tc.sigmaT
		s, err := linkpad.NewSystem(c)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := s.Build(linkpad.SessionAttackSpec{Session: linkpad.SessionAttackConfig{
			Feature:      linkpad.FeatureEntropy,
			WindowSize:   n,
			TrainWindows: 120,
			EvalSessions: 40,
			MaxWindows:   10,
			Confidence:   0.99,
		}})
		if err != nil {
			log.Fatal(err)
		}
		out, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res := out.Session
		fmt.Printf("%-22s %10.3f %9.0f%% %12.2f %14.2f\n",
			tc.name, res.DetectionRate, res.DecidedRate*100,
			res.MeanWindowsToDecision, res.MeanTimeToDecision)
	}
	// Output:
	// continuous session of class "40pps", warm-up 100 packets (1.01 s of stream)
	//   window 1: mean PIAT 10.0000 ms, stream clock now  11.01 s
	//   window 2: mean PIAT 10.0000 ms, stream clock now  21.01 s
	//   window 3: mean PIAT 10.0000 ms, stream clock now  31.01 s
	// system                  detection    decided  windows/dec    seconds/dec
	// CIT (sigma_T = 0)           1.000       100%         1.00          10.00
	// VIT sigma_T = 30us          0.713         8%         8.33          83.33
	// VIT sigma_T = 100us         0.412         0%         0.00           0.00
}

// The population protocol: dozens of senders with private recipient
// profiles share a padded infrastructure, and a global passive adversary
// runs the two canonical population-scale attacks against it. Statistical
// disclosure contrasts the batching mix's rounds with and without each
// target until the target's contact set stands out; cover traffic (dummy
// messages to random recipients) buys rounds. In the SDA arms race the
// least-squares estimator models how many messages a target contributed
// per round, the mix pools messages across rounds, and adaptive dummies
// re-address cover traffic at the estimator's top false suspects. Flow
// correlation matches egress flows to ingress users by windowed rate
// correlation plus the paper's PIAT class features: padding hides the
// individual inside the class; only cover traffic hides who talks to
// whom. Every protocol runs through the same two calls — Build a Spec,
// Run the Scenario.
func ExampleSystem_Build() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}
	run := func(spec linkpad.Spec) *linkpad.ScenarioResult {
		sc, err := sys.Build(spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("statistical disclosure: 48 users, 60 recipients, 3 contacts each")
	for _, cover := range []float64{0, 2} {
		res := run(linkpad.DisclosureSpec{
			Population: linkpad.PopulationSpec{
				Users:      48,
				Recipients: 60,
				CoverRate:  cover,
			},
			Disclosure: linkpad.DisclosureConfig{MaxRounds: 6000},
		}).Disclosure
		fmt.Printf("  cover %.0fx: %2.0f%% of targets disclosed, mean %4.0f rounds, residual anonymity %.2f\n",
			cover, 100*res.DisclosedFrac, res.MeanRounds, res.MeanAnonymity)
	}

	fmt.Println("SDA arms race: 24 users, pool mix, 2500-round budget")
	for _, duel := range []struct {
		name string
		est  linkpad.EstimatorKind
		dum  linkpad.DummyPolicy
	}{
		{"classic vs uniform dummies", linkpad.EstimatorClassic, linkpad.DummyUniform},
		{"least-squares vs uniform", linkpad.EstimatorLeastSquares, linkpad.DummyUniform},
		{"least-squares vs adaptive", linkpad.EstimatorLeastSquares, linkpad.DummyAdaptive},
	} {
		res := run(linkpad.DisclosureSpec{
			Population: linkpad.PopulationSpec{
				Users:      24,
				Recipients: 60,
				CoverRate:  1,
				Dummies:    duel.dum,
			},
			Disclosure: linkpad.DisclosureConfig{
				Batch:     48,
				Mix:       linkpad.MixPolicySpec{Kind: linkpad.MixPool},
				Estimator: duel.est,
				MaxRounds: 2500,
			},
		}).Disclosure
		fmt.Printf("  %-26s: %3.0f%% disclosed, mean %4.0f rounds\n",
			duel.name, 100*res.DisclosedFrac, res.MeanRounds)
	}

	fmt.Println("flow correlation: 24 users, 60 s of observation per flow")
	spec := linkpad.PopulationSpec{Users: 24, Recipients: 60}
	raw := run(linkpad.FlowCorrelationSpec{
		Population: spec,
		Corr:       linkpad.FlowCorrConfig{Duration: 60, Raw: true},
	}).FlowCorr
	fmt.Printf("  unpadded: %3.0f%% of flows matched (mean rate correlation %.2f)\n",
		100*raw.Accuracy, raw.MeanCorrTrue)
	cit := run(linkpad.FlowCorrelationSpec{
		Population: spec,
		Corr: linkpad.FlowCorrConfig{
			Duration: 60,
			Features: []linkpad.Feature{linkpad.FeatureVariance, linkpad.FeatureEntropy},
		},
	}).FlowCorr
	fmt.Printf("  CIT padded: %3.0f%% of flows matched (correlation %.2f), but class identified for %.0f%%\n",
		100*cit.Accuracy, cit.MeanCorrTrue, 100*cit.ClassAccuracy)
	// Output:
	// statistical disclosure: 48 users, 60 recipients, 3 contacts each
	//   cover 0x: 100% of targets disclosed, mean  659 rounds, residual anonymity 0.50
	//   cover 2x: 75% of targets disclosed, mean 2578 rounds, residual anonymity 0.60
	// SDA arms race: 24 users, pool mix, 2500-round budget
	//   classic vs uniform dummies:  62% disclosed, mean 1656 rounds
	//   least-squares vs uniform  :  88% disclosed, mean  975 rounds
	//   least-squares vs adaptive :   0% disclosed, mean 2500 rounds
	// flow correlation: 24 users, 60 s of observation per flow
	//   unpadded: 100% of flows matched (mean rate correlation 1.00)
	//   CIT padded:   8% of flows matched (correlation 0.01), but class identified for 100%
}

// The cascade protocol: sixteen flows cross routes of re-padding hops,
// and a global passive adversary taps every route's entry and exit,
// matching exit flows to entry flows by throughput-fingerprint
// correlation plus the paper's PIAT class features. Every hop re-pads at
// 1/τ = 100 pps, so each extra hop costs a full padded link. One padded
// hop hides the individual inside the rate class; the second hides the
// class too, because the inner hop only ever sees the entry hop's
// constant rate. Hop order matters: a batch-of-8 mix in front of a timer
// hop drives the timer's blocking channel onto the exit wire and leaks
// the class the other order protects — put the timer hop first.
func ExampleSystem_Build_cascade() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}
	features := []linkpad.Feature{linkpad.FeatureVariance, linkpad.FeatureEntropy}
	run := func(hops []linkpad.CascadeHop) *linkpad.CascadeResult {
		sc, err := sys.Build(linkpad.CascadeCorrelationSpec{
			Cascade: linkpad.CascadeSpec{Hops: hops, Flows: 16},
			Corr:    linkpad.CascadeCorrConfig{Duration: 60, Features: features},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res.Cascade
	}

	fmt.Println("end-to-end correlation vs hop count: 16 flows, 60 s per flow")
	for _, hops := range []int{0, 1, 2, 3} {
		res := run(make([]linkpad.CascadeHop, hops))
		fmt.Printf("  %d hops: %3.0f%% of flows matched, class identified for %3.0f%%, anonymity %.2f, %3.0f pps/flow\n",
			hops, 100*res.Accuracy, 100*res.ClassAccuracy, res.DegreeOfAnonymity, res.RoutePPS)
	}

	fmt.Println("hop order: the same stages, opposite leaks")
	for _, route := range []struct {
		name string
		hops []linkpad.CascadeHop
	}{
		{"CIT then MIX8", []linkpad.CascadeHop{{}, {Policy: linkpad.CascadeMix}}},
		{"MIX8 then CIT", []linkpad.CascadeHop{{Policy: linkpad.CascadeMix}, {}}},
	} {
		res := run(route.hops)
		fmt.Printf("  %s: class identified for %3.0f%% (%3.0f pps/flow)\n",
			route.name, 100*res.ClassAccuracy, res.RoutePPS)
	}
	// Output:
	// end-to-end correlation vs hop count: 16 flows, 60 s per flow
	//   0 hops: 100% of flows matched, class identified for   0%, anonymity 0.02,  25 pps/flow
	//   1 hops:   6% of flows matched, class identified for  75%, anonymity 0.73, 100 pps/flow
	//   2 hops:   0% of flows matched, class identified for  69%, anonymity 0.92, 200 pps/flow
	//   3 hops:   0% of flows matched, class identified for  50%, anonymity 0.93, 300 pps/flow
	// hop order: the same stages, opposite leaks
	//   CIT then MIX8: class identified for  62% (200 pps/flow)
	//   MIX8 then CIT: class identified for 100% (125 pps/flow)
}

// The active adversary: an attacker on the payload side of the padded
// link injects a keyed chaff watermark — attacker-minted packets in a
// secret on/off pattern, 20 pps in marked slots, about half that over the
// key's duty cycle — into sixteen flows, and runs a matched-filter
// detector at the exit tap. An unpadded link forwards the rate pattern
// outright; a CIT timer flattens the wire rate but still leaks the
// pattern through its blocking jitter; a second re-padding hop destroys
// it. A delay watermark (100 ms on marked-slot payload) costs latency,
// not packets, and dies at the first timer, which re-schedules every
// departure. Re-timing is the active countermeasure: every padded hop
// between the taps resets the attacker's clock.
func ExampleSystem_Build_active() {
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}
	detect := linkpad.ActiveDetectConfig{
		Duration: 45,
		Features: []linkpad.Feature{linkpad.FeatureVariance, linkpad.FeatureEntropy},
	}
	run := func(spec linkpad.ActiveSpec) *linkpad.ActiveResult {
		spec.Flows = 16
		sc, err := sys.Build(linkpad.ActiveDetectionSpec{Active: spec, Detect: detect})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res.Active
	}

	fmt.Println("chaff watermark (20 pps in marked slots) vs countermeasure: 16 flows, 45 s per flow")
	for _, tier := range []struct {
		name string
		spec linkpad.ActiveSpec
	}{
		{"unpadded", linkpad.ActiveSpec{Raw: true}},
		{"CIT timer", linkpad.ActiveSpec{}},
		{"2xCIT cascade", linkpad.ActiveSpec{
			Protocol: linkpad.ActiveCascade,
			Hops:     []linkpad.CascadeHop{{}, {}},
		}},
	} {
		spec := tier.spec
		spec.Mode = linkpad.WatermarkChaff
		spec.Amplitude = 20
		res := run(spec)
		fmt.Printf("  %-13s: %3.0f%% of keys detected (mean z %4.1f), %3.0f%% of flows matched, anonymity %.2f, attacker pays %4.1f pps, defense %3.0f pps\n",
			tier.name, 100*res.DetectionRate, res.MeanZ, 100*res.MatchAccuracy,
			res.DegreeOfAnonymity, res.InjectedPPS, res.RoutePPS)
	}

	fmt.Println("delay watermark (100 ms on marked-slot payload)")
	for _, tier := range []struct {
		name string
		raw  bool
	}{
		{"unpadded", true},
		{"CIT timer", false},
	} {
		res := run(linkpad.ActiveSpec{
			Mode:      linkpad.WatermarkDelay,
			Amplitude: 0.1,
			Raw:       tier.raw,
		})
		fmt.Printf("  %-9s: %3.0f%% of keys detected, mean added delay %2.0f ms\n",
			tier.name, 100*res.DetectionRate, 1e3*res.MeanAddedDelay)
	}
	// Output:
	// chaff watermark (20 pps in marked slots) vs countermeasure: 16 flows, 45 s per flow
	//   unpadded     : 100% of keys detected (mean z  5.2), 100% of flows matched, anonymity 0.40, attacker pays 10.0 pps, defense  35 pps
	//   CIT timer    :  75% of keys detected (mean z  3.4),  81% of flows matched, anonymity 0.76, attacker pays 10.0 pps, defense 100 pps
	//   2xCIT cascade:   0% of keys detected (mean z  1.2),   6% of flows matched, anonymity 0.98, attacker pays 10.5 pps, defense 200 pps
	// delay watermark (100 ms on marked-slot payload)
	//   unpadded :  44% of keys detected, mean added delay 51 ms
	//   CIT timer:   0% of keys detected, mean added delay 51 ms
}

// Size camouflage: the paper assumes every packet has one size (§3.2
// remark 3), deferring variable sizes to its companion work. With raw
// sizes on the wire, an adversary tells an interactive (SSH-like)
// application from a bulk (FTP-like) one from a hundred packets.
// Constant-size padding reduces the adversary to guessing (0.5) at about
// 8.4 times the interactive profile's bytes — the price of making the
// constant-size assumption true; bucket padding sits in between.
func ExampleDetectBySize() {
	labels := []string{"interactive", "bulk"}
	interactive, err := linkpad.NewSizeProfile(
		[]int{64, 128, 256, 576, 1500},
		[]float64{0.55, 0.25, 0.10, 0.07, 0.03})
	if err != nil {
		log.Fatal(err)
	}
	bulk, err := linkpad.NewSizeProfile(
		[]int{64, 576, 1500},
		[]float64{0.30, 0.05, 0.65})
	if err != nil {
		log.Fatal(err)
	}
	profiles := []*linkpad.SizeProfile{interactive, bulk}
	constant, err := linkpad.NewConstantSizePad(1500)
	if err != nil {
		log.Fatal(err)
	}
	bucket, err := linkpad.NewBucketSizePad([]int{128, 576, 1500})
	if err != nil {
		log.Fatal(err)
	}
	cfg := linkpad.SizeAttackConfig{
		WindowSize:   100,
		TrainWindows: 200,
		EvalWindows:  200,
		Seed:         7,
	}

	fmt.Printf("%-10s %10s %22s %16s\n", "padding", "detection", "overhead(interactive)", "overhead(bulk)")
	for _, p := range []struct {
		name   string
		padder linkpad.SizePadder
	}{
		{"none", linkpad.NoSizePad()},
		{"bucket", bucket},
		{"constant", constant},
	} {
		res, err := linkpad.DetectBySize(labels, profiles, p.padder, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10.3f %22.2f %16.2f\n",
			p.name, res.DetectionRate,
			linkpad.SizeOverhead(interactive, p.padder),
			linkpad.SizeOverhead(bulk, p.padder))
	}
	// Output:
	// padding     detection  overhead(interactive)   overhead(bulk)
	// none            1.000                   1.00             1.00
	// bucket          1.000                   1.38             1.02
	// constant        0.500                   8.42             1.47
}
