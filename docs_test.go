package dap_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citation matches a file name in the docs, with the command word before
// it when the name is what a `tee`, `-o` or `>` writes.
var citation = regexp.MustCompile(
	`(?:(tee|-o|>)\s+)?([A-Za-z0-9_*][A-Za-z0-9_.*/-]*\.(?:go|md|txt|json|sh|prof|html|csv|mod))\b`)

// TestDocsCiteExistingFiles checks that every repository file README.md,
// EXPERIMENTS.md and DESIGN.md cite exists. A name that a command in the
// docs writes (after `tee`, `-o` or `>`, or under the ignored out/
// directory) is an output, not a citation. Bare names match a file of that
// name anywhere in the tree; `*` globs must match at least one file.
func TestDocsCiteExistingFiles(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		for _, f := range files {
			for _, tail := range []string{f, path.Base(f)} {
				if ok, _ := path.Match(name, tail); ok {
					return true
				}
			}
			if strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllStringSubmatch(string(raw), -1) {
			output, name := m[1], m[2]
			if output != "" || strings.HasPrefix(name, "out/") {
				continue
			}
			if !exists(name) {
				t.Errorf("%s cites %s, which is not in the repository", doc, name)
			}
		}
	}
}
