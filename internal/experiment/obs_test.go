package experiment

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"linkpad/internal/obs"
)

// obsProbeIDs are the experiments the telemetry invariants run over:
// one replica-attack figure, one population sweep (a cell experiment),
// and each flow protocol whose exits the shared pull flushes (cascade,
// active watermark, population flow correlation) — together they
// exercise the gateway, mix, netem, population, adversary and
// experiment counter groups.
var obsProbeIDs = []string{"fig4b", "ext-disclosure", "ext-cascade", "ext-active", "ablation-population-padding"}

// renderText renders a table to its byte-exact text form.
func renderText(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Telemetry must be deterministically invisible: the table an
// experiment produces is byte-identical with collection on or off, and
// the enabled counter totals are a pure function of (experiment, scale,
// seed) — invariant under the worker count. This is the repo's golden
// determinism discipline extended to the flight recorder itself.
func TestObsInvisibleAndWorkerInvariant(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 3}
	for _, id := range obsProbeIDs {
		t.Run(id, func(t *testing.T) {
			obs.SetEnabled(false)
			obs.Reset()
			t.Cleanup(func() {
				obs.SetEnabled(false)
				obs.Reset()
			})
			tbl, err := Run(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			baseline := renderText(t, tbl)

			obs.SetEnabled(true)
			var ref [obs.NumCounters]uint64
			for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				obs.Reset()
				o := opts
				o.Workers = workers
				tbl, err := Run(context.Background(), id, o)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderText(t, tbl); !bytes.Equal(got, baseline) {
					t.Fatalf("workers=%d: table bytes differ with telemetry enabled", workers)
				}
				snap := obs.Snapshot()
				if i == 0 {
					ref = snap
					// Non-degeneracy: the experiment must have reported
					// *something*. (Not every counter group applies to every
					// experiment — the population sweep sends no link packets.)
					var total uint64
					for _, n := range snap {
						total += n
					}
					if total == 0 {
						t.Fatalf("telemetry enabled but nothing counted: %v", obs.Snapshot())
					}
					continue
				}
				if snap != ref {
					for c := obs.Counter(0); c < obs.NumCounters; c++ {
						if snap[c] != ref[c] {
							t.Errorf("workers=%d: counter %s = %d, want %d (workers=1)",
								workers, c.Name(), snap[c], ref[c])
						}
					}
				}
			}
		})
	}
}

// A disabled collector must stay silent: running an experiment with
// collection off adds nothing to the global totals.
func TestObsDisabledCountsNothing(t *testing.T) {
	obs.SetEnabled(false)
	obs.Reset()
	t.Cleanup(obs.Reset)
	if _, err := Run(context.Background(), "fig4b", Options{Scale: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if snap := obs.Snapshot(); snap != ([obs.NumCounters]uint64{}) {
		t.Errorf("disabled collector accumulated counts: %v", obs.Snapshot())
	}
}
