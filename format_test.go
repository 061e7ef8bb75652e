package repro

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails on any .go file of this module that gofmt would
// change. It walks the module the way the go tool does: directories
// named testdata or starting with "." or "_" are skipped, and so is any
// directory with its own go.mod (a separate module, such as perfbench).
func TestGofmt(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(got, src) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no .go files found")
	}
}
