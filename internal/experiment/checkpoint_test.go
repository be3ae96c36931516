package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"linkpad/internal/xrand"
)

// fakeCells is a cheap synthetic cell experiment for exercising the
// checkpoint machinery without simulator cost. It is run through
// runCells directly, never registered, so the registry stays fixed.
var fakeCells = &cellExperiment{
	title:   "synthetic checkpoint probe",
	columns: []string{"cell", "value"},
	ncells:  func(Options) int { return 9 },
	run: func(o Options, cell int) ([]float64, error) {
		rng := xrand.New(o.Seed + uint64(cell)*1009)
		return []float64{float64(cell), rng.Float64()}, nil
	},
	notes: func(o Options, t *Table) { t.Notef("seed %d", o.Seed) },
}

func tableBytes(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointable pins the one sweep path: every runner is a cell
// experiment except the four whose rows share one measurement, so a new
// sweep written as a plain runner fails here.
func TestCheckpointable(t *testing.T) {
	plain := map[string]bool{"fig4a": true, "fig4b": true, "multirate": true, "ablation-training": true}
	for _, id := range Names() {
		if Checkpointable(id) == plain[id] {
			t.Errorf("%s: Checkpointable = %v, want %v", id, Checkpointable(id), !plain[id])
		}
	}
	if _, err := RunCheckpointed(context.Background(), "fig4b", fastOpts, "x.json", 0); err == nil {
		t.Error("RunCheckpointed should reject a non-cell experiment")
	}
	if _, err := RunCheckpointed(context.Background(), "ext-disclosure", fastOpts, "", 0); err == nil {
		t.Error("RunCheckpointed should reject an empty path")
	}
}

// TestRunCellsRejectsNonFinite: a cell that computes NaN or ±Inf fails
// the run with an error naming the experiment, cell and column, instead
// of printing the value or failing later inside the checkpoint encoder.
func TestRunCellsRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ce := &cellExperiment{
			title:   "non-finite probe",
			columns: []string{"cell", "value"},
			ncells:  func(Options) int { return 3 },
			run: func(o Options, cell int) ([]float64, error) {
				if cell == 2 {
					return []float64{float64(cell), bad}, nil
				}
				return []float64{float64(cell), 1}, nil
			},
		}
		for _, path := range []string{"", filepath.Join(t.TempDir(), "cp.json")} {
			_, err := runCells("probe", ce, Options{Seed: 1, Workers: 1}, path, 0)
			if err == nil {
				t.Fatalf("value %v (checkpoint %q): run succeeded", bad, path)
			}
			for _, want := range []string{"probe", "cell 2", "column value"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("value %v (checkpoint %q): error %q does not name %q", bad, path, err, want)
				}
			}
		}
	}
}

// TestRunCellsKillAndResume: kill the synthetic sweep at several budgets,
// resume each time, and demand the finished table be byte-identical to
// an uninterrupted run — including across a worker-width change.
func TestRunCellsKillAndResume(t *testing.T) {
	o := Options{Scale: 1, Seed: 11, Workers: 1}
	plain, err := runCells("fake", fakeCells, o, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, plain)
	for _, killAfter := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "cp.json")
		_, err := runCells("fake", fakeCells, o, path, killAfter)
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("killAfter %d: want ErrKilled, got %v", killAfter, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no checkpoint persisted before the kill: %v", err)
		}
		cp, err := ParseCheckpoint(data)
		if err != nil {
			t.Fatalf("persisted checkpoint does not parse: %v", err)
		}
		done := 0
		for _, d := range cp.Done {
			if d {
				done++
			}
		}
		if done < killAfter {
			t.Fatalf("checkpoint records %d done cells, killed after %d", done, killAfter)
		}
		// Resume at a different worker width; results must not care.
		wide := o
		wide.Workers = 3
		tbl, err := runCells("fake", fakeCells, wide, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tableBytes(t, tbl), want) {
			t.Fatalf("killAfter %d: resumed table differs from uninterrupted run", killAfter)
		}
	}
	// A double kill composes: kill at 2, resume and kill at 3 more, then
	// finish.
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := runCells("fake", fakeCells, o, path, 2); !errors.Is(err, ErrKilled) {
		t.Fatalf("first kill: %v", err)
	}
	if _, err := runCells("fake", fakeCells, o, path, 3); !errors.Is(err, ErrKilled) {
		t.Fatalf("second kill: %v", err)
	}
	tbl, err := runCells("fake", fakeCells, o, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, tbl), want) {
		t.Fatal("twice-killed table differs from uninterrupted run")
	}
	// A completed checkpoint short-circuits: running again recomputes
	// nothing and still yields the same bytes.
	again, err := runCells("fake", fakeCells, o, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, again), want) {
		t.Fatal("re-running a completed checkpoint changed the table")
	}
}

// TestRunCellsCancelAndResume: a sweep whose context is cancelled
// mid-run stops with the cause, keeps the cells it finished in the
// checkpoint, and once resumed yields the uninterrupted table.
func TestRunCellsCancelAndResume(t *testing.T) {
	o := Options{Scale: 1, Seed: 11, Workers: 2}
	plain, err := runCells("fake", fakeCells, o, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, plain)

	cause := errors.New("stopped mid-sweep")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var started atomic.Int32
	stopping := *fakeCells
	stopping.run = func(o Options, cell int) ([]float64, error) {
		if started.Add(1) == 4 {
			cancel(cause)
		}
		return fakeCells.run(o, cell)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	stopped := o
	stopped.ctx = ctx
	if _, err := runCells("fake", &stopping, stopped, path, 0); err != cause {
		t.Fatalf("cancelled sweep returned %v, want its cause", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint persisted before the stop: %v", err)
	}
	cp, err := ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, d := range cp.Done {
		if d {
			done++
		}
	}
	if done == 0 || done == cp.Cells {
		t.Fatalf("checkpoint records %d of %d cells done, want a partial sweep", done, cp.Cells)
	}
	tbl, err := runCells("fake", fakeCells, o, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, tbl), want) {
		t.Fatal("resumed table differs from the uninterrupted run")
	}
}

func TestRunCellsRejectsForeignCheckpoint(t *testing.T) {
	o := Options{Scale: 1, Seed: 11, Workers: 1}
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := runCells("fake", fakeCells, o, path, 2); !errors.Is(err, ErrKilled) {
		t.Fatal(err)
	}
	// Every rejection names the file and says "experiment:" once.
	checkRejected := func(t *testing.T, err error, path, what string) {
		t.Helper()
		if err == nil {
			t.Fatalf("checkpoint resumed %s", what)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name the checkpoint file", err)
		}
		if n := strings.Count(err.Error(), "experiment:"); n != 1 {
			t.Errorf("error %q says \"experiment:\" %d times, want once", err, n)
		}
	}
	other := o
	other.Seed = 12
	_, err := runCells("fake", fakeCells, other, path, 0)
	checkRejected(t, err, path, "under a different seed")
	other = o
	other.Scale = 2
	_, err = runCells("fake", fakeCells, other, path, 0)
	checkRejected(t, err, path, "under a different scale")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runCells("fake", fakeCells, o, path, 0)
	checkRejected(t, err, path, "from a corrupt file")

	// A checkpoint of another table layout must fail before any cell
	// runs, with an error naming the file: done rows of the wrong width,
	// and columns renamed at the same width.
	ran := 0
	counting := *fakeCells
	counting.run = func(o Options, cell int) ([]float64, error) {
		ran++
		return fakeCells.run(o, cell)
	}
	for _, tc := range []struct {
		name   string
		mutate func(cp *Checkpoint)
	}{
		{"truncated-rows", func(cp *Checkpoint) {
			for i, d := range cp.Done {
				if d {
					cp.Rows[i] = cp.Rows[i][:1]
				}
			}
		}},
		{"renamed-column", func(cp *Checkpoint) { cp.Columns = []string{"cell", "other"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cp.json")
			if _, err := runCells("fake", fakeCells, o, path, 2); !errors.Is(err, ErrKilled) {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var cp Checkpoint
			if err := json.Unmarshal(data, &cp); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&cp)
			if data, err = json.Marshal(&cp); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ran = 0
			_, err = runCells("fake", &counting, o, path, 0)
			checkRejected(t, err, path, "with another table layout")
			if ran != 0 {
				t.Errorf("%d cells ran before the checkpoint was rejected", ran)
			}
		})
	}
}

func TestParseCheckpoint(t *testing.T) {
	good := &Checkpoint{
		Experiment: "fake",
		Seed:       3,
		Scale:      0.5,
		Cells:      2,
		Columns:    []string{"a", "b"},
		Done:       []bool{true, false},
		Rows:       [][]float64{{1, 2}, nil},
	}
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, good) {
		t.Fatalf("round trip changed the checkpoint: %+v", parsed)
	}
	bad := []string{
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["c"],"done":[true],"rows":[[1]],"extra":0}`, // unknown field
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["c"],"done":[true],"rows":[[1]]} tail`,      // trailing data
		`{"experiment":"","seed":1,"scale":1,"cells":1,"columns":["c"],"done":[true],"rows":[[1]]}`,            // no experiment
		`{"experiment":"x","seed":0,"scale":1,"cells":1,"columns":["c"],"done":[true],"rows":[[1]]}`,           // zero seed
		`{"experiment":"x","seed":1,"scale":0,"cells":1,"columns":["c"],"done":[true],"rows":[[1]]}`,           // zero scale
		`{"experiment":"x","seed":1,"scale":1,"cells":0,"columns":["c"],"done":[],"rows":[]}`,                  // no cells
		`{"experiment":"x","seed":1,"scale":1,"cells":2097152,"columns":["c"],"done":[],"rows":[]}`,            // absurd cells
		`{"experiment":"x","seed":1,"scale":1,"cells":2,"columns":["c"],"done":[true],"rows":[[1]]}`,           // shape mismatch
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["c"],"done":[true],"rows":[[]]}`,            // done without row
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["c"],"done":[false],"rows":[[1]]}`,          // row without done
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"done":[true],"rows":[[1]]}`,                           // no columns
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":[],"done":[false],"rows":[null]}`,            // empty columns
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["a","b"],"done":[true],"rows":[[1]]}`,       // row narrower than the columns
		`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["a"],"done":[true],"rows":[[1,2]]}`,         // row wider than the columns
		`[1,2]`,
		``,
	}
	for _, s := range bad {
		if _, err := ParseCheckpoint([]byte(s)); err == nil {
			t.Errorf("ParseCheckpoint(%q) should fail", s)
		}
	}
}

// FuzzParseCheckpoint: arbitrary bytes must parse or error cleanly; a
// successful parse must validate and survive a re-encode round trip.
func FuzzParseCheckpoint(f *testing.F) {
	f.Add([]byte(`{"experiment":"fake","seed":3,"scale":0.5,"cells":2,"columns":["cell","value"],"done":[true,false],"rows":[[1,2],null]}`))
	f.Add([]byte(`{"experiment":"ext-disclosure","seed":1,"scale":1,"cells":1,"columns":["v"],"done":[true],"rows":[[0.5]]}`))
	f.Add([]byte(`{"experiment":"x","seed":1,"scale":1e-300,"cells":1,"columns":["v"],"done":[false],"rows":[null]}`))
	f.Add([]byte(`{"experiment":"x","seed":1,"scale":1,"cells":1,"columns":["a","b"],"done":[true],"rows":[[1]]}`))
	f.Add([]byte(`{"experiment":"x","seed":18446744073709551615,"cells":1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("parsed checkpoint fails validation: %v", err)
		}
		data2, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("re-encoding a parsed checkpoint failed: %v", err)
		}
		again, err := ParseCheckpoint(data2)
		if err != nil {
			t.Fatalf("re-parsing an encoded checkpoint failed: %v", err)
		}
		if again.Experiment != cp.Experiment || again.Seed != cp.Seed ||
			again.Scale != cp.Scale || again.Cells != cp.Cells ||
			!reflect.DeepEqual(again.Columns, cp.Columns) {
			t.Fatal("round trip changed the checkpoint identity")
		}
	})
}

// faultOpts runs the fault runners at the golden gate's cheap settings.
var faultOpts = Options{Scale: 0.05, Seed: 3}

func TestExtImpairmentsShape(t *testing.T) {
	tbl := runTableWith(t, "ext-impairments", faultOpts)
	if len(tbl.Rows) != 18 {
		t.Fatalf("got %d rows, want 18 (3 protocols x 6 scenarios)", len(tbl.Rows))
	}
	acc := col(tbl, "accuracy")
	anon := col(tbl, "anonymity")
	loss := col(tbl, "tap_loss")
	for i := range acc {
		if acc[i] < 0 || acc[i] > 1 {
			t.Errorf("row %d: accuracy %v out of [0,1]", i, acc[i])
		}
		if anon[i] < 0 || anon[i] > 1 {
			t.Errorf("row %d: anonymity %v out of [0,1]", i, anon[i])
		}
		if loss[i] < 0 || loss[i] >= 1 {
			t.Errorf("row %d: tap loss %v out of range", i, loss[i])
		}
	}
	// Scenario 0 of each protocol is the clean anchor: zero tap loss.
	for p := 0; p < 3; p++ {
		if loss[p*6] != 0 {
			t.Errorf("protocol %d clean scenario reports tap loss %v", p, loss[p*6])
		}
	}
}

func TestAblationChurnShape(t *testing.T) {
	tbl := runTableWith(t, "ablation-churn", faultOpts)
	if len(tbl.Rows) != 8 {
		t.Fatalf("got %d rows, want 8 (4 fractions x 2 estimators)", len(tbl.Rows))
	}
	frac := col(tbl, "online_frac")
	aware := col(tbl, "churn_aware")
	disclosed := col(tbl, "disclosed_frac")
	rounds := col(tbl, "mean_rounds")
	for i := range frac {
		if disclosed[i] < 0 || disclosed[i] > 1 {
			t.Errorf("row %d: disclosed fraction %v out of [0,1]", i, disclosed[i])
		}
		if rounds[i] <= 0 {
			t.Errorf("row %d: non-positive mean rounds %v", i, rounds[i])
		}
	}
	// The static rows (online fraction 1) must be estimator-invariant:
	// with no churn there is nothing to mask, so naive and churn-aware
	// are the same estimator.
	var static [][]float64
	for i, f := range frac {
		if f == 1 {
			static = append(static, tbl.Rows[i])
		}
	}
	if len(static) != 2 {
		t.Fatalf("want 2 static rows, got %d", len(static))
	}
	for j := range static[0] {
		if j == 1 {
			continue // the churn_aware code itself differs
		}
		if static[0][j] != static[1][j] {
			t.Errorf("static rows differ in column %d: %v != %v (aware %v/%v)",
				j, static[0][j], static[1][j], aware[0], aware[1])
		}
	}
}
