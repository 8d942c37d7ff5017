package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A bad flag value must reach a calling script: diagnostic on stderr,
// nothing on stdout, exit status 2.
func TestBadFlagExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "abapp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-dist", "bogus", "unknown distribution"},
		{"-engine", "bogus", "unknown engine"},
		{"-topo", "bogus", "bad -topo"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-nodes", "4", "-iters", "1", tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2", tc.flag, tc.value, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abapp: "+tc.want) {
			t.Errorf("%s %s: stdout %q, stderr %q", tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
