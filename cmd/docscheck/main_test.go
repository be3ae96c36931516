package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Determinism model":          "determinism-model",
		"CI gates":                   "ci-gates",
		"The paper in one paragraph": "the-paper-in-one-paragraph",
		"Section / claim map":        "section--claim-map",
		"make docs, `go vet`":        "make-docs-go-vet",
	} {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckTarget(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.md")
	other := filepath.Join(dir, "other.md")
	if err := os.WriteFile(doc, []byte("# Title\n## A Section\nbody\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, []byte("# Other Doc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for target, ok := range map[string]bool{
		"other.md":            true,
		"other.md#other-doc":  true,
		"#a-section":          true,
		"https://example.com": true,
		"missing.md":          false,
		"other.md#nope":       false,
		"#missing-heading":    false,
	} {
		problem := checkTarget(doc, target)
		if ok && problem != "" {
			t.Errorf("checkTarget(%q) = %q, want ok", target, problem)
		}
		if !ok && problem == "" {
			t.Errorf("checkTarget(%q) passed, want a problem", target)
		}
	}
}

func TestCheckGoRun(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.md")
	if err := os.MkdirAll(filepath.Join(dir, "cmd", "tool"), 0o755); err != nil {
		t.Fatal(err)
	}
	text := "```sh\ngo run ./cmd/tool -flag\ngo run ./cmd/gone\n```\nRun `go run ./doc.md` or `go run ./cmd/tool`.\n"
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range goRunRe.FindAllStringSubmatch(text, -1) {
		if checkGoRun(doc, m[1]) != "" {
			got = append(got, m[1])
		}
	}
	if want := []string{"./cmd/gone", "./doc.md"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dead go run paths = %q, want %q", got, want)
	}
	if code := run([]string{doc}); code != 1 {
		t.Errorf("run on a doc with dead go run paths = %d, want 1", code)
	}
}

func TestRunOnRepoDocs(t *testing.T) {
	// The real repository documents must pass their own gate.
	root := "../.."
	var files []string
	for _, f := range []string{"README.md", "DESIGN.md", "PAPER.md", "CHANGES.md"} {
		files = append(files, filepath.Join(root, f))
	}
	if code := run(files); code != 0 {
		t.Fatalf("docscheck failed on the repository docs (exit %d)", code)
	}
}
