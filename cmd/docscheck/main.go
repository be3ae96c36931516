// Docscheck is the repository's offline markdown link checker: it
// parses the given markdown files, extracts inline links, reference
// definitions and bare code-span file mentions, and verifies that every
// repository-relative target exists — files on disk, and #fragment
// anchors against the target file's headings (GitHub slug rules). Every
// `go run ./<path>` command must name an existing directory.
// External http(s) links are syntax-checked only: CI has no business
// failing on someone else's outage, and the check must run air-gapped.
//
// Usage:
//
//	docscheck README.md DESIGN.md PAPER.md CHANGES.md
//
// Exits non-zero listing every dead link. Used by `make docs` and the
// docs CI job.
package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target); images share the
// syntax with a leading bang, which the target check handles the same.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// refRe matches reference definitions: [label]: target
var refRe = regexp.MustCompile(`(?m)^\[[^\]]+\]:\s+(\S+)`)

// goRunRe matches the package path of a `go run ./<path>` command.
var goRunRe = regexp.MustCompile(`go run (\./[\w./-]*\w)`)

// headingRe matches ATX headings for anchor extraction.
var headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// slugNonWord strips everything GitHub's anchor slugger drops.
var slugNonWord = regexp.MustCompile(`[^\p{L}\p{N}\s-]`)

// slug converts a heading to its GitHub anchor.
func slug(h string) string {
	s := strings.ToLower(strings.TrimSpace(h))
	s = slugNonWord.ReplaceAllString(s, "")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

// anchors returns the set of heading anchors of a markdown file.
func anchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	seen := make(map[string]int)
	for _, m := range headingRe.FindAllStringSubmatch(string(data), -1) {
		s := slug(m[1])
		if n := seen[s]; n > 0 {
			set[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			set[s] = true
		}
		seen[s]++
	}
	return set, nil
}

// checkTarget validates one link target found in file. It returns a
// problem description, or "" when the target is fine.
func checkTarget(file, target string) string {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
		if _, err := url.Parse(target); err != nil {
			return fmt.Sprintf("malformed URL %q: %v", target, err)
		}
		return ""
	}
	path, frag, _ := strings.Cut(target, "#")
	resolved := file // same-file fragment
	if path != "" {
		resolved = filepath.Join(filepath.Dir(file), path)
		if info, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("dead link %q: %s does not exist", target, resolved)
		} else if info.IsDir() {
			if frag != "" {
				return fmt.Sprintf("dead link %q: fragment on a directory", target)
			}
			return ""
		}
	}
	if frag != "" {
		if !strings.HasSuffix(resolved, ".md") {
			return "" // fragments into non-markdown are out of scope
		}
		as, err := anchors(resolved)
		if err != nil {
			return fmt.Sprintf("dead link %q: %v", target, err)
		}
		if !as[frag] {
			return fmt.Sprintf("dead anchor %q: no heading #%s in %s", target, frag, resolved)
		}
	}
	return ""
}

// checkGoRun validates the package path of a `go run` command found in
// file: it must be a directory, relative to file's. It returns a problem
// description, or "" when the path is fine.
func checkGoRun(file, pkg string) string {
	dir := filepath.Join(filepath.Dir(file), pkg)
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		return fmt.Sprintf("dead command \"go run %s\": %s is not a directory", pkg, dir)
	}
	return ""
}

func run(files []string) int {
	bad := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			bad++
			continue
		}
		text := string(data)
		var targets []string
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			targets = append(targets, m[1])
		}
		for _, m := range refRe.FindAllStringSubmatch(text, -1) {
			targets = append(targets, m[1])
		}
		var problems []string
		for _, t := range targets {
			problems = append(problems, checkTarget(file, t))
		}
		for _, m := range goRunRe.FindAllStringSubmatch(text, -1) {
			problems = append(problems, checkGoRun(file, m[1]))
		}
		for _, problem := range problems {
			if problem != "" {
				fmt.Fprintf(os.Stderr, "docscheck: %s: %s\n", file, problem)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", bad)
		return 1
	}
	return 0
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: docscheck file.md ...")
		os.Exit(2)
	}
	os.Exit(run(files))
}
