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
	for _, tc := range []struct{ flag, value, want string }{
		{"-iters", "-1", "-iters -1: must be at least 1"},
		{"-iters", "0", "-iters 0: must be at least 1"},
		{"-count", "-2", "-count -2: must be at least 1"},
		{"-bigiters", "0", "-bigiters 0: must be at least 1"},
		{"-topoiters", "0", "-topoiters 0: must be at least 1"},
		{"-flowiters", "0", "-flowiters 0: must be at least 1"},
		{"-tenancynodes", "1", "-tenancynodes 1: must be at least 2"},
		{"-tenancyiters", "0", "-tenancyiters 0: must be at least 1"},
		{"-tenancycount", "0", "-tenancycount 0: must be at least 1"},
		{"-loss", "1.5", "fault: drop probability 1.5 outside [0, 1)"},
		{"-loss", "-0.5", "fault: drop probability -0.5 outside [0, 1)"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-sizes", "8", "-iters", "1", "-bigsizes", "", tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2", tc.flag, tc.value, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abscale: "+tc.want) {
			t.Errorf("%s %s: stdout %q, stderr %q", tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
