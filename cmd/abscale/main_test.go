package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An out-of-range count must reach a calling script before any sweep
// runs: a diagnostic naming the flag on stderr, nothing on stdout, exit
// status 2.
func TestBadFlagExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "abscale")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, want string }{
		{"-iters -1", "-iters -1: must be at least 1"},
		{"-iters 0", "-iters 0: must be at least 1"},
		{"-count -2", "-count -2: must be at least 1"},
		{"-bigiters 0", "-bigiters 0: must be at least 1"},
		{"-topoiters 0", "-topoiters 0: must be at least 1"},
		{"-flowiters 0", "-flowiters 0: must be at least 1"},
		{"-tenancynodes 1", "-tenancynodes 1: must be at least 2"},
		{"-tenancyiters 0", "-tenancyiters 0: must be at least 1"},
		{"-tenancycount 0", "-tenancycount 0: must be at least 1"},
		{"-loss 1.5", "fault: drop probability 1.5 outside [0, 1)"},
		{"-loss -0.5", "fault: drop probability -0.5 outside [0, 1)"},
		{"-engine flow -flowsizes 64 -count 4096", "-count 4096: coll: the flow engine models eager reductions only"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-sizes", "8", "-iters", "1", "-bigsizes", ""}, strings.Fields(tc.args)...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2", tc.args, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abscale: "+tc.want) {
			t.Errorf("%s: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}
