package linkpad_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdNameRe matches a markdown file name, with or without a path.
var mdNameRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestDocCommentsCiteExistingFiles pins the rule that a Go comment
// naming a markdown file names one that exists, relative to the
// repository root or to the commenting file's directory: a doc comment
// that sends the reader to a deleted document is a dead link the
// markdown checker never sees.
func TestDocCommentsCiteExistingFiles(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdNameRe.FindAllString(c.Text, -1) {
					if !exists(name) && !exists(filepath.Join(filepath.Dir(path), name)) {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
