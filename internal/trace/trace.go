// Package trace reads and writes PIAT trace files: the interchange format
// between the padded-traffic generator (cmd/padtrace) and the stand-alone
// adversary tool (cmd/advclassify). A trace is a text file with '#'
// metadata lines ("# key: value") followed by one inter-arrival time in
// seconds per line.
//
// The format round-trips exactly: values are written at full float64
// precision (%.17g) and metadata keys are emitted in sorted order, so
// writing is deterministic and Read(Write(x)) == x. Readers are
// tolerant — blank lines, bare '#' comments and CRLF line endings are
// accepted — while writers are strict: metadata containing colons in
// keys or newlines anywhere is rejected rather than emitted unparseably
// (fuzz-tested, including the reader's seed corpus in testdata/fuzz).
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Write emits a trace: metadata (sorted by key for determinism) followed
// by one PIAT per line at full float64 precision.
func Write(w io.Writer, meta map[string]string, piats []float64) error {
	bw := bufio.NewWriter(w)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.ContainsAny(k, ":\n") || strings.Contains(meta[k], "\n") {
			return fmt.Errorf("trace: invalid metadata %q", k)
		}
		if _, err := fmt.Fprintf(bw, "# %s: %s\n", k, meta[k]); err != nil {
			return err
		}
	}
	for _, x := range piats {
		if _, err := fmt.Fprintf(bw, "%.17g\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. Unknown '#' lines are tolerated
// (they become metadata with an empty value when they lack a colon).
// Every sample must be finite and non-negative: a tap's timestamps never
// decrease, so NaN, an infinity or a negative PIAT is a corrupt trace,
// reported with its line number.
func Read(r io.Reader) (map[string]string, []float64, error) {
	meta := make(map[string]string)
	var piats []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if k, v, ok := strings.Cut(body, ":"); ok {
				meta[strings.TrimSpace(k)] = strings.TrimSpace(v)
			} else if body != "" {
				meta[body] = ""
			}
			continue
		}
		x, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, nil, fmt.Errorf("trace: line %d: PIAT %v is not finite and non-negative", lineNo, x)
		}
		piats = append(piats, x)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(piats) == 0 {
		return nil, nil, errors.New("trace: no PIAT samples found")
	}
	return meta, piats, nil
}

// WriteFile writes a trace to path, creating or truncating it.
func WriteFile(path string, meta map[string]string, piats []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, meta, piats); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a trace from path.
func ReadFile(path string) (map[string]string, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}
