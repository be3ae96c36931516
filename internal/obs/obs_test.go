package obs

import (
	"sync"
	"testing"
)

// A nil shard — the disabled probe — must absorb every method without
// panicking or allocating.
func TestNilShardSafe(t *testing.T) {
	var s *Shard
	s.Add(GatewayPayload, 7)
	s.Inc(NetemDrop)
	s.Flush()
	if got := Snapshot()[GatewayPayload]; got != 0 {
		t.Fatalf("nil shard leaked %d counts into the collector", got)
	}
}

func TestDisabledProbeZeroAlloc(t *testing.T) {
	var s *Shard // what NewShard returns while disabled
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(GatewayPayload, 1)
		s.Inc(GatewayDummy)
		s.Flush()
	}); avg != 0 {
		t.Fatalf("disabled probe allocates: %v allocs/op", avg)
	}
}

func TestEnabledShardZeroAllocAdd(t *testing.T) {
	s := &Shard{}
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(GatewayPayload, 1)
		s.Inc(GatewayDummy)
	}); avg != 0 {
		t.Fatalf("enabled shard Add allocates: %v allocs/op", avg)
	}
}

func TestNewShardNilWhenDisabled(t *testing.T) {
	SetEnabled(false)
	if NewShard() != nil {
		t.Fatal("NewShard must return nil while disabled")
	}
	SetEnabled(true)
	defer func() { SetEnabled(false); Reset() }()
	if NewShard() == nil {
		t.Fatal("NewShard must return a live shard while enabled")
	}
}

func TestFlushDrainsAndZeroes(t *testing.T) {
	Reset()
	s := &Shard{}
	s.Add(NetemDrop, 3)
	s.Inc(NetemDrop)
	s.Flush()
	if got := Snapshot()[NetemDrop]; got != 4 {
		t.Fatalf("flush published %d, want 4", got)
	}
	// A second flush of the drained shard must publish nothing more.
	s.Flush()
	if got := Snapshot()[NetemDrop]; got != 4 {
		t.Fatalf("double flush published %d, want 4", got)
	}
	Reset()
	if got := Snapshot()[NetemDrop]; got != 0 {
		t.Fatalf("reset left %d", got)
	}
}

func TestCountGatedOnEnabled(t *testing.T) {
	Reset()
	SetEnabled(false)
	Count(AdvSlab, 5)
	if got := Snapshot()[AdvSlab]; got != 0 {
		t.Fatalf("disabled Count published %d", got)
	}
	SetEnabled(true)
	defer func() { SetEnabled(false); Reset() }()
	Count(AdvSlab, 5)
	if got := Snapshot()[AdvSlab]; got != 5 {
		t.Fatalf("enabled Count published %d, want 5", got)
	}
}

// Concurrent drains from many shard owners plus live snapshot readers:
// the pattern every parallel run exercises. Run under -race in CI.
func TestConcurrentFlushAndSnapshot(t *testing.T) {
	Reset()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Shard{}
			for i := 0; i < per; i++ {
				s.Inc(MixPacket)
				if i%100 == 0 {
					s.Flush()
				}
			}
			s.Flush()
		}()
	}
	done := make(chan struct{})
	go func() { // live reader racing the drains
		for {
			select {
			case <-done:
				return
			default:
				Snapshot()
				ReadProgress()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := Snapshot()[MixPacket]; got != workers*per {
		t.Fatalf("lost counts under concurrency: got %d, want %d", got, workers*per)
	}
	Reset()
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.Name()
		if name == "" || name == "unknown" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(-1).Name() != "unknown" || NumCounters.Name() != "unknown" {
		t.Fatal("out-of-range counters must name as unknown")
	}
}

func TestProgressGauges(t *testing.T) {
	Reset()
	AddExperiments(3)
	ExperimentDone()
	AddCells(10)
	SetEnabled(true)
	CellDone()
	CellDone()
	SetEnabled(false)
	p := ReadProgress()
	if p.ExpsTotal != 3 || p.ExpsDone != 1 || p.CellsTotal != 10 || p.CellsDone != 2 {
		t.Fatalf("progress = %+v", p)
	}
	if got := Snapshot()[ExperimentCell]; got != 2 {
		t.Fatalf("cell counter = %d, want 2", got)
	}
	Reset()
}
