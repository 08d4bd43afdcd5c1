package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingLinksNoBaseline makes the baseline boundary a rule, in both
// directions. The daemon and the public package link nothing under
// internal/baselines/ (the comparison compressors, the experiment harness
// and the coders only they use) and none of the data and scoring packages
// that examples and benchmark/ use; every other top-level internal package
// is linked, so no package can sit beside the serving ones unserved.
func TestServingLinksNoBaseline(t *testing.T) {
	notServed := func(top string) bool {
		switch top {
		case "baselines", // internal/baselines/
			"datagen", "metrics", "analysis": // data and scoring
			return true
		}
		return false
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "repro/cmd/ipcompd", "repro/ipcomp").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	linked := map[string]bool{} // top-level directories under internal/
	for _, dep := range strings.Fields(string(out)) {
		rest, ok := strings.CutPrefix(dep, "repro/internal/")
		if !ok {
			continue
		}
		top, _, _ := strings.Cut(rest, "/")
		if notServed(top) {
			t.Errorf("the serving binary or repro/ipcomp links %s", dep)
		}
		linked[top] = true
	}
	if len(linked) == 0 {
		t.Fatal("go list -deps printed no repro/internal package")
	}

	entries, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !linked[e.Name()] && !notServed(e.Name()) {
			t.Errorf("internal/%s is linked by no serving package, yet is neither under internal/baselines/ nor a data or scoring package", e.Name())
		}
	}
}
