package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"linkpad/internal/experiment"
	"linkpad/internal/obs"
)

// benchRecord is one -bench-json run: wall-clock per experiment at the
// given options, appended to the trajectory file so successive commits
// (or machines) can be compared. GitCommit and Scale attribute each
// record to a code revision and Monte Carlo effort, making the
// trajectory comparable across commits.
type benchRecord struct {
	Timestamp    string       `json:"timestamp"`
	GitCommit    string       `json:"git_commit"`
	GoVersion    string       `json:"go_version"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Scale        float64      `json:"scale"`
	Seed         uint64       `json:"seed"`
	Workers      int          `json:"workers"`
	Experiments  []benchPoint `json:"experiments"`
	TotalSeconds float64      `json:"total_seconds"`
}

// gitCommit identifies the code revision being benchmarked. The
// enclosing git checkout is preferred over the binary's build info so
// `go run` and a built binary stamp the same tree identically: git can
// exclude BENCH.json from the dirty check (the bench run itself appends
// to it, and a trajectory file touched by the previous run must not mark
// an otherwise clean tree dirty), where vcs.modified cannot. The
// checkout is used only if it actually is this module, so a run from
// inside an unrelated repository is not attributed to that repository's
// commits. Build info is the fallback for binaries run outside the
// checkout; "unknown" when neither source is available.
func gitCommit() string {
	if rev := gitTreeCommit(); rev != "" {
		return rev
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + modified
		}
	}
	return "unknown"
}

// gitTreeCommit resolves the enclosing checkout's HEAD (+dirty), or ""
// when the cwd is not inside this module's repository.
func gitTreeCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return ""
	}
	top := strings.TrimSpace(string(out))
	mod, err := os.ReadFile(top + "/go.mod")
	if err != nil || !strings.HasPrefix(string(mod), "module linkpad\n") {
		return ""
	}
	out, err = exec.Command("git", "-C", top, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	// Whole-tree status (git -C toplevel) so a subdirectory cwd neither
	// misses dirt elsewhere nor fails to exclude BENCH.json. A failed
	// status must not stamp a possibly-dirty tree as clean — fall back
	// to the build-info path instead.
	status, err := exec.Command("git", "-C", top, "status", "--porcelain", "--", ".", ":!BENCH.json").Output()
	if err != nil {
		return ""
	}
	if len(status) > 0 {
		rev += "+dirty"
	}
	return rev
}

// benchPoint times one experiment. Packets is the simulated packet
// volume the experiment pushed through the padded links (gateway
// payload + dummy emissions plus timed-mix packets, from the obs
// counter delta around the run) — a deterministic function of
// (experiment, scale, seed), so packets/sec trends are comparable
// across records at the same options even as the code changes. Messages
// is the population runners' work unit, the real messages put into mix
// rounds (the population_message counter delta). It is omitted where it
// is 0, so rewriting the trajectory leaves the records written before it
// existed as they were.
type benchPoint struct {
	ID             string  `json:"id"`
	Seconds        float64 `json:"seconds"`
	Rows           int     `json:"rows"`
	Packets        uint64  `json:"packets"`
	PacketsPerSec  float64 `json:"packets_per_sec"`
	Messages       uint64  `json:"messages,omitempty"`
	MessagesPerSec float64 `json:"messages_per_sec,omitempty"`
}

// runBenchJSON executes the selected experiments, timing each, and
// appends the run to the JSON trajectory at path (created if absent).
func runBenchJSON(ids []string, opts experiment.Options, path string) error {
	rec := benchRecord{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitCommit:  gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		Workers:    opts.Workers,
	}
	total := time.Duration(0)
	for _, id := range ids {
		start := time.Now()
		before := obs.Snapshot()
		tbl, err := experiment.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		var delta [obs.NumCounters]uint64
		after := obs.Snapshot()
		for c := range delta {
			delta[c] = after[c] - before[c]
		}
		packets := obs.Packets(delta)
		messages := delta[obs.PopulationMessage]
		rec.Experiments = append(rec.Experiments, benchPoint{
			ID:             id,
			Seconds:        elapsed.Seconds(),
			Rows:           len(tbl.Rows),
			Packets:        packets,
			PacketsPerSec:  perSecond(packets, elapsed),
			Messages:       messages,
			MessagesPerSec: perSecond(messages, elapsed),
		})
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, elapsed.Round(time.Millisecond))
	}
	rec.TotalSeconds = total.Seconds()

	var trajectory []benchRecord
	if data, err := os.ReadFile(path); err == nil {
		// A corrupt or foreign file is preserved rather than overwritten.
		if err := json.Unmarshal(data, &trajectory); err != nil {
			return fmt.Errorf("bench-json: %s exists but is not a bench trajectory: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	trajectory = append(trajectory, rec)
	out, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "total %v; trajectory appended to %s (%d runs)\n",
		total.Round(time.Millisecond), path, len(trajectory))
	return nil
}
