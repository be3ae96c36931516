package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16, 0} {
		n := 137
		visited := make([]int32, n)
		if err := Map(n, workers, func(i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	if err := Map(0, 4, func(int) error { return errors.New("boom") }); err != nil {
		t.Errorf("empty map should not error: %v", err)
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := Map(50, 4, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestMapWorkerIDsWithinRange(t *testing.T) {
	const workers = 5
	var bad int32
	err := MapWorker(200, workers, func(worker, i int) error {
		if worker < 0 || worker >= workers {
			atomic.AddInt32(&bad, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d calls saw an out-of-range worker id", bad)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d", got)
	}
}

// TestMapReturnsLowestFailingIndex: index 1 fails before index 0 does,
// at two workers, and index 0's error is the one returned.
func TestMapReturnsLowestFailingIndex(t *testing.T) {
	err0, err1 := errors.New("index 0"), errors.New("index 1")
	for range 20 {
		failed1 := make(chan struct{})
		err := Map(2, 2, func(i int) error {
			if i == 1 {
				defer close(failed1)
				return err1
			}
			<-failed1
			// Let index 1's failure be recorded first.
			time.Sleep(2 * time.Millisecond)
			return err0
		})
		if err != err0 {
			t.Fatalf("Map returned %v, want the lowest failing index's %v", err, err0)
		}
	}
}
