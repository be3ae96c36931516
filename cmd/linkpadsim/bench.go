package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
)

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

// loadTrajectory reads the JSON trajectory at path, none if it is
// absent. Its records are carried as raw JSON, so each keeps its bytes
// whatever shape it was written in; a corrupt or foreign file is
// refused. run loads the file before any experiment, so a refusal costs
// no run.
func loadTrajectory(path string) ([]json.RawMessage, error) {
	var trajectory []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		// The raw records must also decode as run records, which
		// -bench-compare reads them as.
		if err = json.Unmarshal(data, &trajectory); err == nil {
			err = json.Unmarshal(data, new([]RunReport))
		}
		if err != nil {
			return nil, fmt.Errorf("%s exists but is not a bench trajectory: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return trajectory, nil
}

// appendTrajectory appends rec to the JSON trajectory at path (created
// if absent) and returns how many records the file then holds. Earlier
// records keep their bytes; a corrupt or foreign file is refused and
// left untouched.
func appendTrajectory(path string, rec *RunReport) (int, error) {
	trajectory, err := loadTrajectory(path)
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	trajectory = append(trajectory, raw)
	return len(trajectory), writeJSON(path, trajectory)
}
