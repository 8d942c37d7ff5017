package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles abapp into a test directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "abapp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A bad flag value must reach a calling script: diagnostic on stderr,
// nothing on stdout, exit status 2.
func TestBadFlagExitsTwo(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct{ args, want string }{
		{"-dist bogus", "unknown distribution"},
		{"-engine bogus", "unknown engine"},
		{"-topo bogus", "bad -topo"},
		{"-nodes 1", "-nodes 1: must be at least 2"},
		{"-iters -1", "-iters -1: must be at least 1"},
		{"-iters 0", "-iters 0: must be at least 1"},
		{"-count -2", "-count -2: must be at least 1"},
		{"-reds -1", "-reds -1: must be at least 1"},
		{"-window -1", "-window -1: must be at least 1"},
		{"-engine flow -count 4096", "-count 4096: coll: the flow engine models eager reductions only"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-nodes", "4", "-iters", "1"}, strings.Fields(tc.args)...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2", tc.args, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "abapp: "+tc.want) {
			t.Errorf("%s: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}

// Each reduction prints under its style label, in table order, and the
// flow engine runs only the two it models.
func TestStyleStrings(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		args   []string
		styles []string
	}{
		{nil, []string{"default", "app-bypass", "split-phase", "nic-based"}},
		{[]string{"-engine", "flow", "-topo", "fattree:4"}, []string{"default", "app-bypass"}},
	} {
		out, err := exec.Command(bin, append([]string{"-nodes", "4", "-iters", "2"}, tc.args...)...).Output()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		// The style column is the first field of the rows between the
		// table header and the blank line after it.
		var got []string
		rows := strings.SplitAfter(string(out), "signals\n")[1]
		for _, line := range strings.Split(rows, "\n") {
			if line == "" {
				break
			}
			got = append(got, strings.Fields(line)[0])
		}
		if strings.Join(got, " ") != strings.Join(tc.styles, " ") {
			t.Errorf("%v: styles %q, want %q", tc.args, got, tc.styles)
		}
	}
}
