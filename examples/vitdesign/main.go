// VIT design: the paper's core guideline is to replace the constant
// interval timer with a variable one whose interval variance σ_T² is
// large enough to push the PIAT variance ratio r to 1. This example
// solves for σ_T two ways — analytically from the theorems, and
// empirically by calibrating against the simulated attacker — then
// verifies the deployed system.
//
// Run with: go run ./examples/vitdesign
package main

import (
	"context"
	"fmt"
	"log"

	"linkpad"
)

func main() {
	const (
		target = 0.60 // cap the adversary at 60% detection
		n      = 1000 // against samples of 1000 PIATs
	)
	sys, err := linkpad.NewSystem(linkpad.DefaultLabConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The baseline and verification attacks run through the unified
	// scenario API against two different systems.
	run := func(s *linkpad.System, cfg linkpad.AttackConfig) *linkpad.AttackResult {
		sc, err := s.Build(linkpad.AttackSetSpec{
			Attack:   cfg,
			Features: []linkpad.Feature{linkpad.FeatureEntropy},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sc.Run(context.Background(), linkpad.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return res.AttackSet[0]
	}

	// CIT baseline: how exposed are we?
	base := run(sys, linkpad.AttackConfig{WindowSize: n})
	fmt.Printf("CIT baseline: entropy-feature detection %.3f at n=%d (r=%.2f)\n",
		base.DetectionRate, n, base.EmpiricalR)

	// Analytic guideline (Theorem 3 inverted). This treats both classes
	// as Gaussians, which underestimates a KDE attacker that can also see
	// the blocking-delay *shape* difference — so treat it as a floor.
	sigmaAnalytic, err := sys.DesignVIT(linkpad.FeatureEntropy, target, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytic σ_T (Theorem 3 inverted):  %7.1f µs\n", sigmaAnalytic*1e6)

	// Empirical calibration against the simulated attacker.
	attack := linkpad.AttackConfig{
		Feature:      linkpad.FeatureEntropy,
		WindowSize:   n,
		TrainWindows: 120,
		EvalWindows:  120,
	}
	sigmaCal, err := sys.CalibrateVIT(target, attack, linkpad.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated σ_T (simulated attack):  %7.1f µs\n", sigmaCal*1e6)

	// Deploy and verify on an independent realization.
	cfg := linkpad.DefaultLabConfig()
	cfg.SigmaT = sigmaCal
	cfg.Seed = 2026
	hard, err := linkpad.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := run(hard, attack)
	fmt.Printf("deployed VIT system: detection %.3f (target %.2f)\n",
		res.DetectionRate, target)
	fmt.Println()
	fmt.Println("Note: VIT changes only the timing pattern — the padded packet rate")
	fmt.Println("and therefore the bandwidth overhead are unchanged; the cost is a")
	fmt.Println("modestly larger worst-case queueing delay at the gateway.")
}
