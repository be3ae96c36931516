package dist

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalPDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if got, want := n.PDF(0), 1/math.Sqrt(2*math.Pi); !almostEq(got, want, 1e-15) {
		t.Errorf("PDF(0) = %v, want %v", got, want)
	}
	// Symmetry and positivity.
	for _, x := range []float64{0.5, 1, 2, 5} {
		if n.PDF(x) != n.PDF(-x) {
			t.Errorf("asymmetric PDF at %v", x)
		}
		if n.PDF(x) <= 0 {
			t.Errorf("PDF(%v) not positive", x)
		}
	}
	// Scale/location: N(3, 2²) at 3 is half the standard peak.
	m := Normal{Mu: 3, Sigma: 2}
	if got, want := m.PDF(3), n.PDF(0)/2; !almostEq(got, want, 1e-15) {
		t.Errorf("scaled peak = %v, want %v", got, want)
	}
}

func TestNormalLogPDF(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 0.5}
	for _, x := range []float64{-2, 0, 1, 3} {
		if got, want := n.LogPDF(x), math.Log(n.PDF(x)); !almostEq(got, want, 1e-12) {
			t.Errorf("LogPDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Far tail: LogPDF stays finite where PDF underflows to zero.
	if lp := n.LogPDF(1e3); math.IsInf(lp, 0) || math.IsNaN(lp) {
		t.Errorf("LogPDF(1e3) = %v", lp)
	}
}

func TestStdPhi(t *testing.T) {
	if got := StdPhi(0); got != 0.5 {
		t.Errorf("Phi(0) = %v", got)
	}
	// Deep left tail keeps relative accuracy (erfc-based).
	if got := StdPhi(-10); !(got > 0) || got > 1e-22 {
		t.Errorf("Phi(-10) = %v", got)
	}
	if got := StdPhi(10); got != 1 && !(1-got < 1e-20) {
		t.Errorf("Phi(10) = %v", got)
	}
}

func TestFindRoot(t *testing.T) {
	// sqrt(2) via x² − 2.
	root, err := FindRoot(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(root, math.Sqrt2, 1e-12) {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
	// Exact hit at an endpoint.
	root, err = FindRoot(func(x float64) float64 { return x }, 0, 1, 1e-12)
	if err != nil || root != 0 {
		t.Errorf("endpoint root = %v, err %v", root, err)
	}
	// Non-bracketing interval fails.
	if _, err := FindRoot(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err == nil {
		t.Error("non-bracketing interval should fail")
	}
	// Inverted interval fails.
	if _, err := FindRoot(func(x float64) float64 { return x }, 1, -1, 1e-9); err == nil {
		t.Error("inverted interval should fail")
	}
	// NaN endpoint fails.
	if _, err := FindRoot(func(x float64) float64 { return math.NaN() }, 0, 1, 1e-9); err == nil {
		t.Error("NaN endpoint should fail")
	}
}

func TestIntegrate(t *testing.T) {
	// ∫₀¹ x² dx = 1/3, exact for Simpson on polynomials up to cubic.
	v, err := Integrate(func(x float64) float64 { return x * x }, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 1.0/3, 1e-14) {
		t.Errorf("integral = %v, want 1/3", v)
	}
	// Standard normal integrates to ~1 over ±9.
	n := Normal{Sigma: 1}
	v, err = Integrate(n.PDF, -9, 9, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 1, 1e-9) {
		t.Errorf("normal integral = %v", v)
	}
	// Odd n is rounded up, not rejected.
	v, err = Integrate(func(x float64) float64 { return x }, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 2, 1e-13) {
		t.Errorf("odd-n integral = %v, want 2", v)
	}
	// Degenerate and invalid inputs.
	if v, err := Integrate(n.PDF, 1, 1, 100); err != nil || v != 0 {
		t.Errorf("empty interval: %v, %v", v, err)
	}
	if _, err := Integrate(n.PDF, 0, 1, 1); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := Integrate(n.PDF, 0, math.Inf(1), 100); err == nil {
		t.Error("infinite bound should fail")
	}
}
