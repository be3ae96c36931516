package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"linkpad/internal/obs"
)

// progressReporter owns the CLI's stderr status stream: the
// per-experiment "done in" lines that every run gets, plus the opt-in
// -progress live line with a cells-completed ETA. It reads only the
// obs progress gauges (atomics the experiment layer updates as sweep
// cells finish), never the simulation state, so it cannot perturb a
// run — and the ticker goroutine is stopped before run() returns so
// tests see a quiet stderr afterwards.
type progressReporter struct {
	w       io.Writer
	live    bool
	tty     bool
	began   time.Time
	stop0   chan struct{}
	done    chan struct{}
	mu      sync.Mutex // serialises line output against the ticker
	started bool
}

// newProgress builds the reporter; live enables the ticker line.
func newProgress(w io.Writer, live bool) *progressReporter {
	return &progressReporter{w: w, live: live, tty: isTerminal(w)}
}

// isTerminal reports whether w is an *os.File on a character device,
// in which case the live line may rewrite itself with \r.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// start begins the run: records the experiment count in the progress
// gauges and, when live, launches the ticker goroutine.
func (p *progressReporter) start(nExps int) {
	p.start0(nExps, time.Second)
}

func (p *progressReporter) start0(nExps int, period time.Duration) {
	p.started = true
	p.began = time.Now()
	obs.AddExperiments(nExps)
	if !p.live {
		return
	}
	p.stop0 = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-p.stop0:
				return
			case <-tick.C:
				p.line()
			}
		}
	}()
}

// line emits one progress update. On a terminal it rewrites in place;
// on a pipe (CI logs) each update is its own line.
func (p *progressReporter) line() {
	pr := obs.ReadProgress()
	elapsed := time.Since(p.began)
	msg := fmt.Sprintf("progress: exp %d/%d, cells %d/%d, %s elapsed",
		pr.ExpsDone, pr.ExpsTotal, pr.CellsDone, pr.CellsTotal,
		elapsed.Round(time.Second))
	// ETA from the cell completion rate: cells are the finest-grained
	// deterministic unit of work, so the rate is meaningful as soon as a
	// few have landed. Every sweep runs as cells; only the four plain
	// runners (fig4a, fig4b, multirate, ablation-training) contribute
	// nothing here, and the exp counter still moves for them.
	if pr.CellsDone > 0 && pr.CellsDone < pr.CellsTotal {
		perCell := elapsed / time.Duration(pr.CellsDone)
		eta := perCell * time.Duration(pr.CellsTotal-pr.CellsDone)
		msg += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tty {
		fmt.Fprintf(p.w, "\r\x1b[K%s", msg)
	} else {
		fmt.Fprintln(p.w, msg)
	}
}

// experimentDone marks one experiment finished and always prints its
// timing line — stdout table runs included, not just -o mode.
func (p *progressReporter) experimentDone(id string, elapsed time.Duration) {
	obs.ExperimentDone()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live && p.tty {
		// Clear the in-place progress line before the permanent one.
		fmt.Fprint(p.w, "\r\x1b[K")
	}
	fmt.Fprintf(p.w, "%s: done in %v\n", id, elapsed.Round(time.Millisecond))
}

// stop halts the ticker goroutine (if any) and prints a final summary
// line for live runs. Safe to call when start was never reached.
func (p *progressReporter) stop() {
	if !p.started {
		return
	}
	if p.stop0 != nil {
		close(p.stop0)
		<-p.done
		p.stop0 = nil
		pr := obs.ReadProgress()
		p.mu.Lock()
		if p.tty {
			fmt.Fprint(p.w, "\r\x1b[K")
		}
		fmt.Fprintf(p.w, "progress: exp %d/%d, cells %d/%d, %s total\n",
			pr.ExpsDone, pr.ExpsTotal, pr.CellsDone, pr.CellsTotal,
			time.Since(p.began).Round(time.Millisecond))
		p.mu.Unlock()
	}
}
