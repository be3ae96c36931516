package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"linkpad/internal/experiment"
	"linkpad/internal/obs"
)

// A RunReport is one CLI invocation's record, the document -report
// writes and -bench-json appends to its trajectory: it attributes every
// telemetry counter to the experiment that produced it. The counters
// come from per-experiment snapshot deltas of the obs collector, so an
// "all" run decomposes cleanly even though the collector itself is
// process-global. Counter values are
// deterministic functions of (experiment, scale, seed) — identical at
// any -workers width — while seconds, packets/sec and messages/sec are
// wall-clock measurements and vary run to run.
type RunReport struct {
	Timestamp   string             `json:"timestamp"`
	GitCommit   string             `json:"git_commit"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Scale       float64            `json:"scale"`
	Seed        uint64             `json:"seed"`
	Workers     int                `json:"workers"`
	Experiments []ExperimentReport `json:"experiments"`
	Totals      ReportTotals       `json:"totals"`
	// Stopped is set when -timeout or -checkpoint-kill stopped the run;
	// Experiments then holds only the experiments that finished.
	Stopped *StopReport `json:"stopped,omitempty"`
}

// StopReport names the experiment a stopped run was in and the cause.
type StopReport struct {
	Experiment string `json:"experiment"`
	Cause      string `json:"cause"`
}

// ExperimentReport is one experiment's slice of the run.
type ExperimentReport struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Rows    int     `json:"rows"`
	// Packets is the simulated packet volume this experiment pushed
	// through the padded links: gateway payload + dummy emissions plus
	// timed-mix packets (obs.Packets over the counter delta).
	Packets       uint64  `json:"packets"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	// Messages is the population work unit: real messages the population
	// engine put into mix rounds (the population_message counter delta).
	// Population runners push no padded packets, so without it they would
	// report zero throughput.
	Messages       uint64            `json:"messages"`
	MessagesPerSec float64           `json:"messages_per_sec"`
	Counters       map[string]uint64 `json:"counters"`
}

// ReportTotals aggregates the whole invocation.
type ReportTotals struct {
	Seconds        float64           `json:"seconds"`
	Packets        uint64            `json:"packets"`
	PacketsPerSec  float64           `json:"packets_per_sec"`
	Messages       uint64            `json:"messages"`
	MessagesPerSec float64           `json:"messages_per_sec"`
	Counters       map[string]uint64 `json:"counters"`
	// PeakRSSMB is the process's peak resident set (VmHWM) in MiB, read
	// once at the end of the run; omitted where /proc is unavailable.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

// runReport accumulates per-experiment counter deltas during the run
// loop and serialises them at the end.
type runReport struct {
	rep   RunReport
	total time.Duration
}

func newRunReport(opts experiment.Options) *runReport {
	return &runReport{rep: RunReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitCommit:  gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		Workers:    opts.Workers,
	}}
}

// add records one finished experiment from the collector snapshots
// taken just before and just after its run.
func (r *runReport) add(id string, elapsed time.Duration, rows int, before, after [obs.NumCounters]uint64) {
	var delta [obs.NumCounters]uint64
	counters := make(map[string]uint64, int(obs.NumCounters))
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		delta[c] = after[c] - before[c]
		counters[c.Name()] = delta[c]
	}
	packets := obs.Packets(delta)
	messages := delta[obs.PopulationMessage]
	r.total += elapsed
	r.rep.Experiments = append(r.rep.Experiments, ExperimentReport{
		ID:             id,
		Seconds:        elapsed.Seconds(),
		Rows:           rows,
		Packets:        packets,
		PacketsPerSec:  perSecond(packets, elapsed),
		Messages:       messages,
		MessagesPerSec: perSecond(messages, elapsed),
		Counters:       counters,
	})
}

// stop records that the run stopped in experiment id with cause.
func (r *runReport) stop(id string, cause error) {
	r.rep.Stopped = &StopReport{Experiment: id, Cause: cause.Error()}
}

// finish fills in the totals, with the peak RSS peakRSSMB read (0 where
// it could not), and returns the finished record, the one -report
// writes and -bench-json appends to its trajectory.
func (r *runReport) finish(rssMB float64) *RunReport {
	totals := ReportTotals{
		Seconds:   r.total.Seconds(),
		Counters:  make(map[string]uint64, int(obs.NumCounters)),
		PeakRSSMB: rssMB,
	}
	for _, e := range r.rep.Experiments {
		totals.Packets += e.Packets
		totals.Messages += e.Messages
		for name, n := range e.Counters {
			totals.Counters[name] += n
		}
	}
	totals.PacketsPerSec = perSecond(totals.Packets, r.total)
	totals.MessagesPerSec = perSecond(totals.Messages, r.total)
	r.rep.Totals = totals
	return &r.rep
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// perSecond guards the throughput division against a sub-resolution
// elapsed time (trivial experiments at tiny -scale can finish in 0ns on
// coarse clocks).
func perSecond(n uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}
