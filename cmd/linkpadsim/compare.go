package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// comparablePair loads the trajectory at path and returns its last record
// plus the most recent earlier record with the same scale, seed, workers
// and effective parallelism — the pair that is actually comparable.
func comparablePair(path string) (prev, last *RunReport, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var trajectory []RunReport
	if err := json.Unmarshal(data, &trajectory); err != nil {
		return nil, nil, fmt.Errorf("%s is not a bench trajectory: %w", path, err)
	}
	if len(trajectory) < 2 {
		return nil, nil, fmt.Errorf("%s holds %d record(s); need at least two", path, len(trajectory))
	}
	last = &trajectory[len(trajectory)-1]
	for i := len(trajectory) - 2; i >= 0; i-- {
		r := &trajectory[i]
		if r.Scale != last.Scale || r.Seed != last.Seed || r.Workers != last.Workers ||
			r.parallelism() != last.parallelism() {
			continue
		}
		return r, last, nil
	}
	return nil, nil, fmt.Errorf("no earlier record matches the last one (scale %v, seed %d, workers %d, GOMAXPROCS %d)",
		last.Scale, last.Seed, last.Workers, last.GOMAXPROCS)
}

// parallelism is the record's effective parallelism, min(workers,
// GOMAXPROCS) with workers 0 meaning all of GOMAXPROCS: a run at
// -workers 2 on one core is a one-wide run and times like one.
func (r *RunReport) parallelism() int {
	if r.Workers <= 0 {
		return r.GOMAXPROCS
	}
	return min(r.Workers, r.GOMAXPROCS)
}

// seconds is the record's total, the sum of its experiments' seconds:
// older records carry it as total_seconds and newer ones as totals, and
// the sum reads both alike.
func (r *RunReport) seconds() float64 {
	var s float64
	for _, e := range r.Experiments {
		s += e.Seconds
	}
	return s
}

// runBenchCompare prints per-experiment wall-clock deltas between the
// last two comparable records of the trajectory at path, so a perf
// regression shows up as a signed percentage instead of a manual JSON
// diff.
func runBenchCompare(w io.Writer, path string) error {
	if err := benchDiff(w, path, false); err != nil {
		return fmt.Errorf("bench-compare: %w", err)
	}
	return nil
}

// benchGateFloorSeconds is the noise floor of the regression gate:
// experiments whose baseline ran shorter than this are skipped, because
// a CI runner's scheduling jitter alone swings sub-50 ms timings far
// past any sensible percentage threshold.
const benchGateFloorSeconds = 0.05

// benchGatePct is the regression gate's per-experiment slowdown bound,
// in percent.
const benchGatePct = 25

// runBenchGate is runBenchCompare with teeth: it prints the same delta
// table and then fails if any individual experiment above the noise
// floor slowed down by more than benchGatePct percent. Only
// per-experiment slowdowns gate — totals shift with experiment
// membership, new and removed experiments have no baseline, and
// speedups are never an error.
func runBenchGate(w io.Writer, path string) error {
	if err := benchDiff(w, path, true); err != nil {
		return fmt.Errorf("bench-gate: %w", err)
	}
	return nil
}

// benchDiff prints the per-experiment delta table between the last two
// comparable records; with gate set it also collects experiments slower
// than benchGatePct (baseline above the noise floor) and errors if any
// exist.
func benchDiff(w io.Writer, path string, gate bool) error {
	prev, last, err := comparablePair(path)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# bench-compare: %s\n", path)
	fmt.Fprintf(w, "# old: %s  %s (%s)\n", prev.Timestamp, short(prev.GitCommit), prev.GoVersion)
	fmt.Fprintf(w, "# new: %s  %s (%s)\n", last.Timestamp, short(last.GitCommit), last.GoVersion)
	fmt.Fprintf(w, "# scale %v, seed %d, workers %d, GOMAXPROCS %d -> %d\n",
		last.Scale, last.Seed, last.Workers, prev.GOMAXPROCS, last.GOMAXPROCS)
	if gate {
		fmt.Fprintf(w, "# gate: fail on > +%d%% per experiment (baselines under %.0f ms ignored)\n",
			benchGatePct, benchGateFloorSeconds*1000)
	}

	oldSecs := make(map[string]float64, len(prev.Experiments))
	for _, p := range prev.Experiments {
		oldSecs[p.ID] = p.Seconds
	}
	ids := make([]string, 0, len(last.Experiments))
	newSecs := make(map[string]float64, len(last.Experiments))
	shared := 0
	for _, p := range last.Experiments {
		ids = append(ids, p.ID)
		newSecs[p.ID] = p.Seconds
		if _, ok := oldSecs[p.ID]; ok {
			shared++
		}
	}
	if shared == 0 {
		return fmt.Errorf("the comparable records (%s and %s) share no experiments — nothing to diff",
			prev.Timestamp, last.Timestamp)
	}
	sort.Strings(ids)
	var regressed []string
	fmt.Fprintf(w, "%-28s %10s %10s %9s\n", "experiment", "old_s", "new_s", "delta")
	for _, id := range ids {
		after := newSecs[id]
		before, ok := oldSecs[id]
		if !ok {
			fmt.Fprintf(w, "%-28s %10s %10.3f %9s\n", id, "-", after, "new")
			continue
		}
		fmt.Fprintf(w, "%-28s %10.3f %10.3f %9s\n", id, before, after, deltaPct(before, after))
		if gate && before >= benchGateFloorSeconds &&
			100*(after-before)/before > benchGatePct {
			regressed = append(regressed, fmt.Sprintf("%s (%.3fs -> %.3fs, %s)",
				id, before, after, deltaPct(before, after)))
		}
	}
	for _, p := range prev.Experiments {
		if _, ok := newSecs[p.ID]; !ok {
			fmt.Fprintf(w, "%-28s %10.3f %10s %9s\n", p.ID, p.Seconds, "-", "gone")
		}
	}
	fmt.Fprintf(w, "%-28s %10.3f %10.3f %9s\n", "total",
		prev.seconds(), last.seconds(), deltaPct(prev.seconds(), last.seconds()))
	if len(regressed) > 0 {
		return fmt.Errorf("%d experiment(s) regressed past +%d%%: %s",
			len(regressed), benchGatePct, joinLines(regressed))
	}
	return nil
}

// joinLines formats the regression list one entry per line for the error
// message.
func joinLines(xs []string) string {
	out := ""
	for _, x := range xs {
		out += "\n  " + x
	}
	return out
}

// deltaPct formats the relative change from before to after. A zero
// baseline (a hand-edited or truncated record) has no defined relative
// change — render "n/a" rather than dividing by zero.
func deltaPct(before, after float64) string {
	if before == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(after-before)/before)
}

// short truncates a commit hash for display, keeping any +dirty suffix.
func short(commit string) string {
	const n = 12
	if len(commit) <= n {
		return commit
	}
	suffix := ""
	if len(commit) > 6 && commit[len(commit)-6:] == "+dirty" {
		suffix = "+dirty"
	}
	return commit[:n] + suffix
}
