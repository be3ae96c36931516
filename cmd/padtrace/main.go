// Command padtrace generates padded-traffic PIAT traces from the
// simulated link-padding system, in the text format consumed by
// cmd/advclassify. It models the paper's capture step: a network analyzer
// dumping the padded stream at the adversary's observation point.
//
// Usage:
//
//	padtrace -class 1 -n 200000 -o high.piat
//	padtrace -class 0 -sigmat 50e-6 -hops 15 -util 0.2 -o low-vit-wan.piat
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"linkpad/internal/core"
	"linkpad/internal/netem"
	"linkpad/internal/trace"
	"linkpad/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "padtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		class    = flag.Int("class", 0, "payload rate class: 0 = 10pps, 1 = 40pps")
		n        = flag.Int("n", 100000, "number of PIATs to emit")
		sigmaT   = flag.Float64("sigmat", 0, "VIT interval std dev in seconds (0 = CIT)")
		hops     = flag.Int("hops", 0, "number of congested routers between tap and gateway")
		util     = flag.Float64("util", 0.2, "cross-traffic utilization per hop")
		loss     = flag.Float64("loss", 0, "tap packet-miss probability")
		res      = flag.Float64("res", 0, "tap timestamp resolution in seconds (0 = perfect)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		streamID = flag.Uint64("stream", 1, "stream replica id (use different ids for train vs eval)")
		out      = flag.String("o", "", "output trace file (default stdout)")
	)
	flag.Parse()

	cfg := core.DefaultLabConfig()
	cfg.SigmaT = *sigmaT
	cfg.Seed = *seed
	cfg.TapImpair = &netem.Impairment{LossProb: *loss}
	cfg.TapResolution = *res
	for i := 0; i < *hops; i++ {
		cfg.Hops = append(cfg.Hops, core.HopSpec{
			CapacityBps: 100e6,
			PacketBytes: 1500,
			Util:        traffic.Constant(*util),
		})
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	if *class < 0 || *class >= len(cfg.Rates) {
		return fmt.Errorf("class %d out of range", *class)
	}
	if *n <= 0 {
		return fmt.Errorf("need -n > 0")
	}
	src, err := sys.PIATSource(*class, *streamID)
	if err != nil {
		return err
	}
	piats := make([]float64, *n)
	for i := range piats {
		piats[i] = src.Next()
	}
	meta := map[string]string{
		"class":  cfg.Rates[*class].Label,
		"policy": map[bool]string{true: "VIT", false: "CIT"}[*sigmaT > 0],
		"sigmat": strconv.FormatFloat(*sigmaT, 'g', -1, 64),
		"hops":   strconv.Itoa(*hops),
		"util":   strconv.FormatFloat(*util, 'g', -1, 64),
		"seed":   strconv.FormatUint(*seed, 10),
		"stream": strconv.FormatUint(*streamID, 10),
	}
	if *out == "" {
		return trace.Write(os.Stdout, meta, piats)
	}
	return trace.WriteFile(*out, meta, piats)
}
