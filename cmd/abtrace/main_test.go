package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A flag value the timeline cannot be drawn with must reach a calling
// script before any of it is printed: diagnostic on stderr, nothing on
// stdout, exit status 2.
func TestBadFlagExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "abtrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-count", "0", "-count 0: must be at least 1"},
		{"-count", "-3", "-count -3: must be at least 1"},
		{"-width", "0", "-width 0: must be at least 1"},
		{"-width", "-5", "-width -5: must be at least 1"},
		{"-late", "-1ms", "-late -1ms: must be at least 0s"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2", tc.flag, tc.value, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abtrace: "+tc.want) {
			t.Errorf("%s %s: stdout %q, stderr %q", tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
