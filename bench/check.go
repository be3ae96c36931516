package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"

	"linkpad/internal/core"
)

// expectedFS holds the committed result digests. They are compiled in, so
// a run checks them wherever it is started from.
//
//go:embed expected/*.json
var expectedFS embed.FS

// expectedFile is bench/expected/<workload>.json: one digest per op for
// each recorded seed, in op order.
type expectedFile struct {
	Workload string              `json:"workload"`
	Ops      []string            `json:"ops"`
	Digests  map[string][]string `json:"digests"`
}

// loadExpected reads a workload's committed digests; a workload with no
// file yet has none.
func loadExpected(workload string) (*expectedFile, error) {
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return &expectedFile{Workload: workload, Digests: map[string][]string{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var ef expectedFile
	if err := json.Unmarshal(data, &ef); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", workload, err)
	}
	if ef.Digests == nil {
		ef.Digests = map[string][]string{}
	}
	return &ef, nil
}

// expectedDigests returns the committed digests for (workload, seed), or
// nil when that seed was never recorded. Digests recorded for another op
// list are an error: the benchmark changed without re-recording.
func expectedDigests(workload string, seed uint64, ops []op) ([]string, error) {
	ef, err := loadExpected(workload)
	if err != nil {
		return nil, err
	}
	d := ef.Digests[strconv.FormatUint(seed, 10)]
	if d == nil {
		return nil, nil
	}
	if !reflect.DeepEqual(ef.Ops, opNames(ops)) || len(d) != len(ops) {
		return nil, fmt.Errorf("expected/%s.json was recorded for other ops; re-record with -record", workload)
	}
	return d, nil
}

// recordDigests rewrites bench/expected/<workload>.json with the run's
// digests for its seed, keeping the other seeds'.
func recordDigests(workload string, seed uint64, ops []op, rec *record) error {
	if !rec.Report.Correct {
		return errors.New("not recording the digests of a run with failed ops")
	}
	digests := make([]string, len(rec.Ops))
	for i, or := range rec.Ops {
		digests[i] = or.Digest
	}
	ef, err := loadExpected(workload)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ef.Ops, opNames(ops)) {
		ef.Digests = map[string][]string{}
	}
	ef.Workload, ef.Ops = workload, opNames(ops)
	ef.Digests[strconv.FormatUint(seed, 10)] = digests
	data, err := json.MarshalIndent(ef, "", "  ")
	if err != nil {
		return err
	}
	// -record runs from the repository root, like every benchmark run.
	return os.WriteFile(filepath.Join("bench", "expected", workload+".json"), append(data, '\n'), 0o644)
}

func opNames(ops []op) []string {
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.name
	}
	return names
}

// rateField names the result fields that are probabilities or fractions.
var rateField = regexp.MustCompile(`(Rate|Frac|Accuracy|Anonymity)$`)

// fingerprint digests a scenario result — sha256 over every leaf value,
// floats printed with %.17g — and checks the invariants that hold at any
// seed: every float finite, every rate in [0, 1], disclosure rounds
// within the budget.
func fingerprint(res *core.Result, o op) (string, error) {
	var w walker
	w.walk("Result", reflect.ValueOf(res))
	if w.bad != nil {
		return "", w.bad
	}
	if sp, ok := o.spec.(core.DisclosureSpec); ok && res.Disclosure != nil {
		budget := sp.Disclosure.MaxRounds
		if res.Disclosure.Rounds > budget {
			return "", fmt.Errorf("observed %d rounds, budget %d", res.Disclosure.Rounds, budget)
		}
		for _, t := range res.Disclosure.Targets {
			if t.Rounds > budget {
				return "", fmt.Errorf("target %d disclosed at round %d, budget %d", t.User, t.Rounds, budget)
			}
		}
	}
	sum := sha256.Sum256(w.buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// walker prints a result's leaves as name=value lines and records the
// first invariant a leaf breaks.
type walker struct {
	buf bytes.Buffer
	bad error
}

func (w *walker) walk(name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			w.walk(name, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(name, v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		fmt.Fprintf(&w.buf, "%s=%.17g\n", name, f)
		switch {
		case w.bad != nil:
		case math.IsNaN(f) || math.IsInf(f, 0):
			w.bad = fmt.Errorf("%s is %v", name, f)
		case rateField.MatchString(name) && (f < 0 || f > 1):
			w.bad = fmt.Errorf("%s = %v is outside [0, 1]", name, f)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(&w.buf, "%s=%d\n", name, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(&w.buf, "%s=%d\n", name, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(&w.buf, "%s=%t\n", name, v.Bool())
	case reflect.String:
		fmt.Fprintf(&w.buf, "%s=%q\n", name, v.String())
	default:
		if w.bad == nil {
			w.bad = fmt.Errorf("result field %s has unexpected kind %v", name, v.Kind())
		}
	}
}
