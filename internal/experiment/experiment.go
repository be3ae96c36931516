// Package experiment reproduces the paper's evaluation section: one
// runner per figure (4a, 4b, 5a, 5b, 6, 8a, 8b) plus the §6 multi-rate
// extension and ablation studies of the reproduction's own design
// choices. Each runner returns a Table whose rows are the series the
// paper plots; the bench harness and the linkpadsim CLI render them.
// Beyond the figures, ext-* runners extend the study to new scenario
// axes (continuous sessions, populations, cascades, the active
// watermark adversary) and ablation-* runners vary one design choice at
// matched budgets; PAPER.md maps every paper claim to its runner.
//
// Determinism contract: a Table is a pure function of (experiment ID,
// Options.Scale, Options.Seed). Every sweep is a cell experiment
// (checkpoint.go): runCells fans its cells out, every cell derives its
// randomness from its own (seed, cell) streams, and each cell's scenarios
// run at its bounded nested budget (Options.Workers, handed to Run as
// RunOptions.Workers) — so tables are byte-identical at any
// Options.Workers, a property CI enforces with golden tables
// (testdata/golden/) and the worker-invariance tests.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Options control the Monte Carlo effort and reproducibility of a runner.
type Options struct {
	// Scale multiplies the number of training/evaluation windows:
	// 1.0 is full fidelity, smaller values run proportionally faster.
	// Zero means 1.0.
	Scale float64
	// Seed is the master seed. Zero means 1.
	Seed uint64
	// Workers bounds sweep parallelism. Zero means all CPUs
	// (GOMAXPROCS). Results are identical for any worker count: every
	// sweep point — and every Monte Carlo trial within a point — derives
	// its randomness from its own seed.
	Workers int

	// ctx stops the run: Run and RunCheckpointed set it, runCells
	// derives each sweep's from it, and runScenario hands it to every
	// Scenario.Run, so the cell bodies need no context parameter of
	// their own. It never changes a finished row.
	ctx context.Context
}

// context returns the run's context, Background when none was set.
func (o Options) context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// windows scales a baseline window count, keeping a floor that preserves
// statistical meaning even in -short runs.
func (o Options) windows(base int) int {
	n := int(math.Round(float64(base) * o.Scale))
	if n < 24 {
		n = 24
	}
	return n
}

// Table is one experiment's result: named numeric columns, one row per
// x-axis point, with free-form notes for calibration context.
type Table struct {
	// ID is the registry key, e.g. "fig4b".
	ID string
	// Title describes the experiment.
	Title string
	// Columns names the numeric columns.
	Columns []string
	// Rows holds the data; every row has len(Columns) values.
	Rows [][]float64
	// Notes carries measurement context (calibrated r, parameters, ...).
	Notes []string
}

// AddRow appends a row, which must match the column count.
func (t *Table) AddRow(vals ...float64) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("experiment: row has %d values, table %q has %d columns",
			len(vals), t.ID, len(t.Columns))
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// Notef appends a formatted note.
func (t *Table) Notef(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteText renders the table as an aligned text report.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for j, c := range t.Columns {
		widths[j] = len(c)
	}
	for i, row := range t.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = formatCell(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	head := make([]string, len(t.Columns))
	for j, c := range t.Columns {
		head[j] = fmt.Sprintf("%*s", widths[j], c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, "  ")); err != nil {
		return err
	}
	for _, row := range cells {
		line := make([]string, len(row))
		for j, c := range row {
			line[j] = fmt.Sprintf("%*s", widths[j], c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(line, "  ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = formatCell(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// formatCell renders a float compactly: integers without decimals, small
// magnitudes in scientific notation.
func formatCell(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15 && (v == 0 || math.Abs(v) >= 1):
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1e6 || (v != 0 && math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Runner produces one experiment table.
type Runner func(Options) (*Table, error)

// registry maps experiment IDs to runners; populated by init functions in
// the figure and extension files.
var registry = map[string]Runner{}

// register adds a runner; duplicate IDs panic at init time.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = r
}

// Names returns all experiment IDs in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID. When ctx is done
// before the table is, Run returns context.Cause(ctx) and no table.
func Run(ctx context.Context, id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, errors.New("experiment: unknown id " + id +
			" (known: " + strings.Join(Names(), ", ") + ")")
	}
	o.ctx = ctx
	t, err := r(o.withDefaults())
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	return t, err
}
