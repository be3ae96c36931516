package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	meta := map[string]string{"policy": "CIT", "rate": "40pps", "seed": "7"}
	piats := []float64{0.01, 0.0100001, 0.0099999, 1e-9, 12345.6789}
	var buf bytes.Buffer
	if err := Write(&buf, meta, piats); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotPIATs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range meta {
		if gotMeta[k] != v {
			t.Errorf("meta[%q] = %q, want %q", k, gotMeta[k], v)
		}
	}
	if len(gotPIATs) != len(piats) {
		t.Fatalf("got %d PIATs, want %d", len(gotPIATs), len(piats))
	}
	for i := range piats {
		if gotPIATs[i] != piats[i] {
			t.Errorf("PIAT %d = %v, want exact %v", i, gotPIATs[i], piats[i])
		}
	}
}

func TestFullPrecision(t *testing.T) {
	want := []float64{math.Pi * 1e-3, math.Nextafter(0.01, 1)}
	var buf bytes.Buffer
	if err := Write(&buf, nil, want); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("precision lost: %v != %v", got[i], want[i])
		}
	}
}

func TestReadTolerantOfBlanksAndBareComments(t *testing.T) {
	in := "# generated by test\n\n# a: 1\n0.01\n\n0.02\n"
	meta, piats, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if meta["a"] != "1" {
		t.Errorf("meta = %v", meta)
	}
	if _, ok := meta["generated by test"]; !ok {
		t.Errorf("bare comment not kept: %v", meta)
	}
	if len(piats) != 2 {
		t.Errorf("piats = %v", piats)
	}
}

func TestReadErrors(t *testing.T) {
	if _, _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, _, err := Read(strings.NewReader("# only: meta\n")); err == nil {
		t.Error("metadata-only trace accepted")
	}
	if _, _, err := Read(strings.NewReader("0.01\nnot-a-number\n")); err == nil {
		t.Error("garbage line accepted")
	}
	// A PIAT is a difference of non-decreasing tap timestamps: finite
	// and >= 0. Anything else is rejected with its line number.
	for _, bad := range []string{"NaN", "nan", "+Inf", "Inf", "-Inf", "-1e-6", "-5e-324", "1e309"} {
		_, _, err := Read(strings.NewReader("# k: v\n0.01\n" + bad + "\n0.02\n"))
		if err == nil {
			t.Errorf("PIAT %q accepted", bad)
		} else if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("PIAT %q: error %q does not name line 3", bad, err)
		}
	}
	// Zero (duplicates, quantized timestamps) and negative zero are valid.
	if _, piats, err := Read(strings.NewReader("0\n-0\n0.01\n")); err != nil || len(piats) != 3 {
		t.Errorf("zero PIATs rejected: %v %v", piats, err)
	}
}

func TestWriteRejectsInvalidMeta(t *testing.T) {
	if err := Write(&bytes.Buffer{}, map[string]string{"a:b": "x"}, []float64{1}); err == nil {
		t.Error("colon in key accepted")
	}
	if err := Write(&bytes.Buffer{}, map[string]string{"a": "x\ny"}, []float64{1}); err == nil {
		t.Error("newline in value accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.piat")
	if err := WriteFile(path, map[string]string{"k": "v"}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	meta, piats, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta["k"] != "v" || len(piats) != 3 {
		t.Errorf("meta %v piats %v", meta, piats)
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "x"), nil, []float64{1}); err == nil {
		t.Error("bad path accepted")
	}
	// Ensure the written file is plain text.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "# k: v\n") {
		t.Errorf("unexpected file contents: %q", raw)
	}
}

// CRLF input: traces written on Windows (or piped through tools that
// normalize line endings) parse identically — the reader trims the CR
// with the surrounding whitespace.
func TestReadCRLF(t *testing.T) {
	in := "# policy: CIT\r\n# note: crlf file\r\n0.01\r\n0.02\r\n\r\n0.03\r\n"
	meta, piats, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if meta["policy"] != "CIT" || meta["note"] != "crlf file" {
		t.Errorf("meta = %v", meta)
	}
	if len(piats) != 3 || piats[0] != 0.01 || piats[2] != 0.03 {
		t.Errorf("piats = %v", piats)
	}
}

// Metadata values may contain colons (only the first colon splits);
// keys may not, and neither side may contain newlines.
func TestMetaColonHandling(t *testing.T) {
	meta := map[string]string{"url": "https://example.com:8080/x", "t": "12:30:07"}
	var buf bytes.Buffer
	if err := Write(&buf, meta, []float64{0.01}); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range meta {
		if got[k] != v {
			t.Errorf("meta[%q] = %q, want %q", k, got[k], v)
		}
	}
	for _, bad := range []map[string]string{
		{"a\nb": "x"}, // newline in key
		{"a": "x\ny"}, // newline in value
		{"a:b": "x"},  // colon in key
		{"a\n": "x"},  // trailing newline in key
		{"a": "x\n"},  // trailing newline in value
	} {
		if err := Write(&bytes.Buffer{}, bad, []float64{1}); err == nil {
			t.Errorf("invalid metadata %v accepted", bad)
		}
	}
}

// The %.17g writer round-trips every representable float64 exactly,
// including denormals, the extremes, and values a %.15g writer would
// collapse.
func TestHugePrecisionRoundTrip(t *testing.T) {
	want := []float64{
		math.SmallestNonzeroFloat64, // 5e-324, denormal
		math.MaxFloat64,             // 1.7976931348623157e+308
		math.Nextafter(1e-2, 0),     // one ulp below 0.01
		math.Nextafter(1e-2, 1),     // one ulp above 0.01
		1.0000000000000002,          // one ulp above 1
		math.Pi * 1e-9,              // needs all 17 digits
		2.2250738585072014e-308,     // smallest normal
	}
	var buf bytes.Buffer
	if err := Write(&buf, nil, want); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d PIATs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("precision lost at %d: read %v, wrote %v", i, got[i], want[i])
		}
	}
}

// FuzzRead fuzzes the trace reader directly: arbitrary input must parse
// or error cleanly, never panic, and a successful parse must uphold the
// format contract (at least one sample, metadata map present). A
// successful parse must also round-trip: re-writing the parsed trace
// (dropping metadata the writer would reject) and re-reading it yields
// the same samples.
func FuzzRead(f *testing.F) {
	f.Add("# class: 10pps\n0.01\n0.011\n")
	f.Add("# k: v\r\n0.02\r\n")
	f.Add("# meta with: several: colons\n5e-324\n1.7976931348623157e+308\n")
	f.Add("#\n# bare\n\n0.01\n\n")
	f.Add("NaN\n+Inf\n-1e309\n")
	f.Fuzz(func(t *testing.T, input string) {
		meta, piats, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(piats) == 0 || meta == nil {
			t.Fatalf("successful parse broke the contract: %v %v", meta, piats)
		}
		clean := make(map[string]string, len(meta))
		for k, v := range meta {
			if strings.ContainsAny(k, ":\n") || strings.Contains(v, "\n") {
				continue
			}
			clean[k] = v
		}
		var buf bytes.Buffer
		if err := Write(&buf, clean, piats); err != nil {
			t.Fatalf("re-writing a parsed trace failed: %v", err)
		}
		_, again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace failed: %v", err)
		}
		if len(again) != len(piats) {
			t.Fatalf("round trip lost samples: %d != %d", len(again), len(piats))
		}
		for i := range piats {
			if again[i] != piats[i] && !(math.IsNaN(again[i]) && math.IsNaN(piats[i])) {
				t.Fatalf("round trip changed sample %d: %v != %v", i, again[i], piats[i])
			}
		}
	})
}
