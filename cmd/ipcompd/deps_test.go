package main

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestServingLinksNoBaseline makes the baseline boundary a rule: the
// daemon and the public package link the IPComp codec and what serves it,
// never a baseline compressor, the experiment harness, or a coder only
// baselines use.
func TestServingLinksNoBaseline(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "repro/cmd/ipcompd", "repro/ipcomp").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps printed nothing")
	}
	banned := regexp.MustCompile(`^repro/internal/(zfp|sz3|mgard|sperr|wavelet|residual|analysis|harness|lossy|huffman)(/|$)`)
	for _, dep := range deps {
		if banned.MatchString(dep) {
			t.Errorf("the serving binary or repro/ipcomp links %s", dep)
		}
	}
}
