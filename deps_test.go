package syrep_test

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modulePath is the import-path prefix of this module's packages.
const modulePath = "syrep/"

// importsOf returns the intra-module imports of the package at the
// repo-relative directory dir (none for a directory without Go files); test
// files count when withTests is set. build.ImportDir on a local directory
// reads the files directly and never invokes the go command.
func importsOf(t *testing.T, dir string, withTests bool) []string {
	t.Helper()
	p, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	all := p.Imports
	if withTests {
		all = append(append(append([]string(nil), all...), p.TestImports...), p.XTestImports...)
	}
	var out []string
	for _, path := range all {
		if strings.HasPrefix(path, modulePath) {
			out = append(out, path)
		}
	}
	return out
}

// TestImportBoundaries guards the package graph: the churn controller
// shares its fault policy with the synthesis service through internal/retry
// and never builds on the HTTP service or the topology zoo, no internal
// package depends on the service, and the alias-only internal/core layer
// stays deleted.
func TestImportBoundaries(t *testing.T) {
	// Transitive (non-test) closure of internal/controller.
	seen := map[string]bool{}
	queue := []string{modulePath + "internal/controller"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		deps := importsOf(t, strings.TrimPrefix(pkg, modulePath), false)
		queue = append(queue, deps...)
	}
	for _, banned := range []string{"internal/server", "internal/topozoo"} {
		if seen[modulePath+banned] {
			t.Errorf("internal/controller reaches %s", banned)
		}
	}

	// No package under internal/, tests included, imports the service.
	server := modulePath + "internal/server"
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if filepath.ToSlash(dir) == "internal/server" {
			return nil
		}
		deps := importsOf(t, dir, true)
		for _, dep := range deps {
			if dep == server {
				t.Errorf("%s imports %s", filepath.ToSlash(dir), server)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat("internal/core"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("internal/core exists (stat err %v); the pipeline lives in internal/resilience", err)
	}
}
