package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles abbench into a test directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "abbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A bad flag value, or a combination the model does not support, must
// reach a calling script: a diagnostic naming the flag on stderr,
// nothing on stdout, exit status 2.
func TestBadFlagExitsTwo(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "bogus"}, "unknown figure"},
		{[]string{"-loss", "2"}, "-loss"},
		{[]string{"-topo", "bogus"}, "bad -topo"},
		{[]string{"-fig", "loss", "-loss", "0.01"}, "-loss"},
		{[]string{"-iters", "-1"}, "-iters -1: must be at least 1"},
		{[]string{"-iters", "0"}, "-iters 0: must be at least 1"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-iters", "1"}, tc.args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", tc.args, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abbench: "+tc.want) {
			t.Errorf("%v: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}

// The run-wide flags reach every figure: -loss changes the topology
// sweep, and -loss and -topo each change the rendezvous ablation.
func TestRunWideFlagsReachEveryFigure(t *testing.T) {
	bin := build(t)
	// table runs abbench and returns the CSV table whose title starts
	// with title.
	table := func(title string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-iters", "2", "-csv"}, args...)...).Output()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, tab := range strings.Split(string(out), "\n\n") {
			if strings.HasPrefix(tab, "# "+title) {
				return tab
			}
		}
		t.Fatalf("%v: no table %q in\n%s", args, title, out)
		return ""
	}
	lossy := []string{"-loss", "0.05", "-faultseed", "1"}

	const topoTitle = "Topology sweep"
	if clean := table(topoTitle, "-fig", "topo"); table(topoTitle, append([]string{"-fig", "topo"}, lossy...)...) == clean {
		t.Error("-fig topo ignored -loss")
	}
	const rdvTitle = "Extension — rendezvous-mode bypass"
	clean := table(rdvTitle, "-fig", "10", "-ablations")
	if table(rdvTitle, append([]string{"-fig", "10", "-ablations"}, lossy...)...) == clean {
		t.Error("the rendezvous ablation ignored -loss")
	}
	if table(rdvTitle, "-fig", "10", "-ablations", "-topo", "fattree:4") == clean {
		t.Error("the rendezvous ablation ignored -topo")
	}
}
