package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"

	"linkpad/internal/obs"
	"linkpad/internal/par"
)

// Cell experiments and checkpoint/resume (checkpoint.go).
//
// Every sweep runs here. A cell experiment is a runner whose table
// decomposes into independent cells: row i is a pure function of
// (Options, i) — the same contract that makes sweeps worker-invariant
// also makes them *resumable*. The framework executes cells in
// parallel under a nested worker budget, checks every row's width and
// finiteness, feeds the progress counters, persists each finished row
// to a JSON checkpoint file, and on restart recomputes only the missing
// cells; because rows never depend on execution history, a resumed
// table is byte-identical to an uninterrupted one, no matter where the
// previous run died or how many workers either run used. CI enforces
// this by killing a run mid-flight (killAfter cancels the sweep's
// context with ErrKilled), resuming it, and diffing the output against
// the golden table. A kill and a caller's cancellation are one stop
// path: either cause ends the sweep, and the finished cells stay in the
// checkpoint. Only fig4a, fig4b, multirate and ablation-training are
// plain runners: their rows share one measurement, so they are not
// cells.

// cellExperiment describes one sweep runner: a fixed column set, a
// cell count, a per-cell row function, and the trailing notes.
type cellExperiment struct {
	title   string
	columns []string
	// ncells returns the sweep size (a pure function of Options).
	ncells func(o Options) int
	// run computes cell i's row; o.Workers is the cell's nested worker
	// budget. It must derive all randomness from (Options.Seed, i).
	run func(o Options, cell int) ([]float64, error)
	// notes appends the table's trailing notes.
	notes func(o Options, t *Table)
}

// cellRegistry maps experiment IDs to their cell decomposition; every
// entry is also in the plain registry (registerCells adds both).
var cellRegistry = map[string]*cellExperiment{}

// registerCells adds a cell experiment under id: Run executes it
// without checkpointing, RunCheckpointed adds persistence.
func registerCells(id string, ce *cellExperiment) {
	cellRegistry[id] = ce
	register(id, func(o Options) (*Table, error) {
		return runCells(id, ce, o, "", 0)
	})
}

// Checkpointable reports whether the experiment supports
// checkpoint/resume (it is registered as a cell experiment).
func Checkpointable(id string) bool {
	_, ok := cellRegistry[id]
	return ok
}

// ErrKilled is the cause RunCheckpointed stops with when a killAfter
// budget expires: the run stopped mid-flight after persisting its
// progress, as a real crash would have. The checkpoint file is valid and
// resumable.
var ErrKilled = errors.New("experiment: run killed after checkpoint budget (simulated crash)")

// maxCheckpointCells bounds the sweep size a checkpoint file may claim,
// so a corrupt or hostile file cannot demand absurd allocations.
const maxCheckpointCells = 1 << 20

// Checkpoint is the on-disk resume state of a cell experiment: which
// cells have finished and their rows. The identity fields pin the file
// to one (experiment, seed, scale) and one column set, so a checkpoint
// is never resumed against a different run's parameters or splices rows
// of another table layout into this one.
type Checkpoint struct {
	Experiment string      `json:"experiment"`
	Seed       uint64      `json:"seed"`
	Scale      float64     `json:"scale"`
	Cells      int         `json:"cells"`
	Columns    []string    `json:"columns"`
	Done       []bool      `json:"done"`
	Rows       [][]float64 `json:"rows"`
}

// ParseCheckpoint decodes and validates a checkpoint file. Unknown
// fields and trailing data are rejected — a checkpoint either parses
// exactly or not at all.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("experiment: parse checkpoint: %w", err)
	}
	if dec.More() {
		return nil, errors.New("experiment: trailing data after checkpoint")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the checkpoint's internal consistency.
func (c *Checkpoint) Validate() error {
	if c.Experiment == "" {
		return errors.New("experiment: checkpoint names no experiment")
	}
	if c.Cells < 1 || c.Cells > maxCheckpointCells {
		return fmt.Errorf("experiment: checkpoint cell count %d out of range [1, %d]", c.Cells, maxCheckpointCells)
	}
	if !(c.Scale > 0) {
		return errors.New("experiment: checkpoint scale must be positive")
	}
	if c.Seed == 0 {
		return errors.New("experiment: checkpoint seed must be non-zero")
	}
	if len(c.Columns) == 0 {
		return errors.New("experiment: checkpoint names no columns")
	}
	if len(c.Done) != c.Cells || len(c.Rows) != c.Cells {
		return fmt.Errorf("experiment: checkpoint shape mismatch: %d cells, %d done flags, %d rows",
			c.Cells, len(c.Done), len(c.Rows))
	}
	for i, d := range c.Done {
		if d && len(c.Rows[i]) != len(c.Columns) {
			return fmt.Errorf("experiment: checkpoint cell %d is done with %d values for %d columns",
				i, len(c.Rows[i]), len(c.Columns))
		}
		if !d && c.Rows[i] != nil {
			return fmt.Errorf("experiment: checkpoint cell %d has a row but is not done", i)
		}
	}
	return nil
}

// matches checks that a loaded checkpoint belongs to this exact run.
func (c *Checkpoint) matches(want *Checkpoint) error {
	if c.Experiment != want.Experiment || c.Seed != want.Seed ||
		c.Scale != want.Scale || c.Cells != want.Cells {
		return fmt.Errorf("experiment: checkpoint is for %s seed=%d scale=%g cells=%d, run wants %s seed=%d scale=%g cells=%d",
			c.Experiment, c.Seed, c.Scale, c.Cells,
			want.Experiment, want.Seed, want.Scale, want.Cells)
	}
	if !slices.Equal(c.Columns, want.Columns) {
		return fmt.Errorf("experiment: checkpoint columns %q differ from the run's %q", c.Columns, want.Columns)
	}
	return nil
}

// save writes the checkpoint atomically (temp file + rename), so a
// crash mid-write leaves the previous checkpoint intact.
func (c *Checkpoint) save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// RunCheckpointed executes a cell experiment with progress persisted to
// path after every finished cell: if path holds a matching checkpoint,
// only the missing cells run. killAfter > 0 stops the run with
// ErrKilled once that many cells finished in *this* invocation — the
// crash-injection hook the kill-and-resume tests use; a done ctx stops
// it with context.Cause(ctx). The finished table is byte-identical to
// Run's regardless of interruptions.
func RunCheckpointed(ctx context.Context, id string, o Options, path string, killAfter int) (*Table, error) {
	ce, ok := cellRegistry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: %s does not support checkpointing", id)
	}
	if path == "" {
		return nil, errors.New("experiment: checkpoint path must be non-empty")
	}
	o.ctx = ctx
	return runCells(id, ce, o, path, killAfter)
}

// runCells executes a cell experiment, optionally persisting progress.
// It checks the context before it starts each cell, and reaching
// killAfter cancels the sweep's context with ErrKilled, so cells in
// flight stop at their next check. A stop returns the cause.
func runCells(id string, ce *cellExperiment, o Options, path string, killAfter int) (*Table, error) {
	o = o.withDefaults()
	n := ce.ncells(o)
	cp := &Checkpoint{
		Experiment: id,
		Seed:       o.Seed,
		Scale:      o.Scale,
		Cells:      n,
		Columns:    ce.columns,
		Done:       make([]bool, n),
		Rows:       make([][]float64, n),
	}
	if path != "" {
		if data, err := os.ReadFile(path); err == nil {
			// Both errors already say "experiment:" and "checkpoint"; only
			// the file is added.
			prev, err := ParseCheckpoint(data)
			if err != nil {
				return nil, fmt.Errorf("%w (file %s)", err, path)
			}
			if err := prev.matches(cp); err != nil {
				return nil, fmt.Errorf("%w (file %s)", err, path)
			}
			cp = prev
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	todo := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !cp.Done[i] {
			todo = append(todo, i)
		}
	}
	// Announce only the cells left to run: a resumed sweep's progress
	// gauge starts where the crashed run stopped.
	obs.AddCells(len(todo))
	ctx, cancel := context.WithCancelCause(o.context())
	defer cancel(nil)
	// Every cell runs at the nested budget, split over the full sweep,
	// not the remainder, so a resumed run schedules exactly like a fresh
	// one (results are identical either way; this only keeps the
	// performance predictable).
	cellOpts := o
	cellOpts.Workers = o.nestedWorkers(n)
	cellOpts.ctx = ctx
	var (
		mu        sync.Mutex
		completed int
	)
	err := par.Map(len(todo), o.workers(), func(k int) error {
		if err := context.Cause(ctx); err != nil {
			return err
		}
		i := todo[k]
		row, err := ce.run(cellOpts, i)
		if err != nil {
			return err
		}
		if len(row) != len(ce.columns) {
			return fmt.Errorf("experiment: %s cell %d produced %d values for %d columns",
				id, i, len(row), len(ce.columns))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("experiment: %s cell %d column %s is %v", id, i, ce.columns[j], v)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		cp.Done[i] = true
		cp.Rows[i] = row
		completed++
		obs.CellDone()
		if path != "" {
			if err := cp.save(path); err != nil {
				return err
			}
		}
		if killAfter > 0 && completed >= killAfter {
			cancel(ErrKilled)
		}
		return nil
	})
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: ce.title, Columns: ce.columns}
	for _, row := range cp.Rows {
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
	if ce.notes != nil {
		ce.notes(o, t)
	}
	return t, nil
}
