package sizes

import (
	"math"
	"testing"
	"testing/quick"

	"linkpad/internal/xrand"
)

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile(nil, nil); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := NewProfile([]int{64}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewProfile([]int{0}, []float64{1}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewProfile([]int{64, 64}, []float64{0.5, 0.5}); err == nil {
		t.Error("non-increasing sizes accepted")
	}
	if _, err := NewProfile([]int{64, 128}, []float64{1, 0}); err == nil {
		t.Error("zero probability accepted")
	}
}

func TestProfileNormalizationAndMean(t *testing.T) {
	p, err := NewProfile([]int{100, 300}, []float64{2, 2}) // un-normalized
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.mean-200) > 1e-12 {
		t.Errorf("mean = %v, want 200", p.mean)
	}
	if p.sizes[len(p.sizes)-1] != 300 {
		t.Errorf("max = %d", p.sizes[len(p.sizes)-1])
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	p, err := NewProfile([]int{64, 576, 1500}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[p.Sample(r)]++
	}
	for i, want := range []float64{0.5, 0.3, 0.2} {
		got := float64(counts[[]int{64, 576, 1500}[i]]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("size %d frequency %v, want %v", i, got, want)
		}
	}
}

// Web returns a mixed HTTP-like profile, between the two built-in
// profiles in mean size.
func Web() *Profile {
	p, err := NewProfile(
		[]int{64, 128, 576, 1024, 1500},
		[]float64{0.30, 0.15, 0.20, 0.10, 0.25})
	if err != nil {
		panic(err)
	}
	return p
}

func TestBuiltinProfiles(t *testing.T) {
	inter, bulk, web := Interactive(), Bulk(), Web()
	if !(inter.mean < web.mean && web.mean < bulk.mean) {
		t.Errorf("expected interactive < web < bulk mean sizes: %v %v %v",
			inter.mean, web.mean, bulk.mean)
	}
}

func TestPadders(t *testing.T) {
	cp, err := NewConstantPad(1500)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Pad(64) != 1500 || cp.Pad(1500) != 1500 || cp.Pad(2000) != 2000 {
		t.Error("constant pad broken")
	}
	if _, err := NewConstantPad(0); err == nil {
		t.Error("zero target accepted")
	}

	bp, err := NewBucketPad([]int{128, 576, 1500})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want int }{
		{64, 128}, {128, 128}, {129, 576}, {1500, 1500}, {1501, 1501},
	} {
		if got := bp.Pad(tc.in); got != tc.want {
			t.Errorf("bucket Pad(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if _, err := NewBucketPad(nil); err == nil {
		t.Error("empty buckets accepted")
	}
	if _, err := NewBucketPad([]int{576, 128}); err == nil {
		t.Error("decreasing buckets accepted")
	}
	if _, err := NewBucketPad([]int{-1}); err == nil {
		t.Error("negative bucket accepted")
	}

	if (NoPad{}).Pad(77) != 77 {
		t.Error("NoPad changed a size")
	}
}

// Padding never shrinks a packet and padded sizes are monotone in raw
// size for every scheme.
func TestPadderProperties(t *testing.T) {
	cp, _ := NewConstantPad(1500)
	bp, _ := NewBucketPad([]int{128, 576, 1500})
	padders := []Padder{NoPad{}, cp, bp}
	f := func(rawA, rawB uint16) bool {
		a, b := int(rawA)+1, int(rawB)+1
		if a > b {
			a, b = b, a
		}
		for _, pd := range padders {
			if pd.Pad(a) < a || pd.Pad(b) < b {
				return false
			}
			if pd.Pad(a) > pd.Pad(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadExact(t *testing.T) {
	p, err := NewProfile([]int{100, 300}, []float64{0.5, 0.5}) // mean 200
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := NewConstantPad(300)
	if got := Overhead(p, cp); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("constant overhead = %v, want 1.5", got)
	}
	if got := Overhead(p, NoPad{}); got != 1 {
		t.Errorf("NoPad overhead = %v, want 1", got)
	}
	// Bucket overhead sits between the two.
	bp, _ := NewBucketPad([]int{100, 300})
	if got := Overhead(p, bp); got != 1 {
		t.Errorf("exact-bucket overhead = %v, want 1", got)
	}
}

func attackCfg() AttackConfig {
	return AttackConfig{WindowSize: 50, TrainWindows: 100, EvalWindows: 100, Seed: 3}
}

// Unpadded sizes identify the application almost surely; constant-size
// padding reduces the adversary to guessing — the paper's §3.2 remark 3
// made quantitative.
func TestDetectAcrossPadders(t *testing.T) {
	labels := []string{"interactive", "bulk"}
	profiles := []*Profile{Interactive(), Bulk()}

	none, err := Detect(labels, profiles, NoPad{}, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if none.DetectionRate < 0.99 {
		t.Errorf("unpadded detection = %v, want ~1", none.DetectionRate)
	}
	if none.Degenerate {
		t.Error("unpadded attack should not be degenerate")
	}

	cp, _ := NewConstantPad(1500)
	constant, err := Detect(labels, profiles, cp, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !constant.Degenerate {
		t.Error("constant padding should leave no feature spread")
	}
	if math.Abs(constant.DetectionRate-0.5) > 1e-9 {
		t.Errorf("constant-pad detection = %v, want exactly 0.5", constant.DetectionRate)
	}

	bp, _ := NewBucketPad([]int{128, 576, 1500})
	bucket, err := Detect(labels, profiles, bp, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if bucket.DetectionRate < 0.9 {
		// Buckets preserve the gross mix here; they protect less than
		// expected — which is the point of measuring.
		t.Logf("bucket detection = %v", bucket.DetectionRate)
	}
	if bucket.DetectionRate <= constant.DetectionRate {
		t.Errorf("bucket (%v) should leak more than constant (%v)",
			bucket.DetectionRate, constant.DetectionRate)
	}
}

func TestDetectThreeWay(t *testing.T) {
	labels := []string{"interactive", "web", "bulk"}
	profiles := []*Profile{Interactive(), Web(), Bulk()}
	res, err := Detect(labels, profiles, NoPad{}, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate < 0.95 {
		t.Errorf("3-way unpadded detection = %v", res.DetectionRate)
	}
	if res.Confusion.Total() != 300 {
		t.Errorf("confusion total = %d", res.Confusion.Total())
	}
}

func TestDetectValidation(t *testing.T) {
	labels := []string{"a", "b"}
	profiles := []*Profile{Interactive(), Bulk()}
	if _, err := Detect(labels[:1], profiles[:1], NoPad{}, attackCfg()); err == nil {
		t.Error("one class accepted")
	}
	if _, err := Detect(labels, profiles[:1], NoPad{}, attackCfg()); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Detect(labels, profiles, nil, attackCfg()); err == nil {
		t.Error("nil padder accepted")
	}
	bad := attackCfg()
	bad.WindowSize = 1
	if _, err := Detect(labels, profiles, NoPad{}, bad); err == nil {
		t.Error("window size 1 accepted")
	}
}

func TestDetectDeterministic(t *testing.T) {
	labels := []string{"a", "b"}
	profiles := []*Profile{Interactive(), Bulk()}
	r1, err := Detect(labels, profiles, NoPad{}, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Detect(labels, profiles, NoPad{}, attackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r1.DetectionRate != r2.DetectionRate {
		t.Error("size attack not deterministic for a fixed seed")
	}
}

func BenchmarkDetectNoPad(b *testing.B) {
	labels := []string{"a", "b"}
	profiles := []*Profile{Interactive(), Bulk()}
	cfg := attackCfg()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(labels, profiles, NoPad{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
