package topo

import "testing"

// FuzzParseSpec: ParseSpec never panics, and an accepted spec's
// canonical spelling parses back to the same canonical spec, so pool
// keys and scenario cache keys built from Norm().String() are stable.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"", "crossbar", "fattree:4", "fattree:16", "fattree:8:o1",
		"fattree:8:o4", "leafspine:8", "leafspine:2:o3", "crossbar:o2", "fattree:5", "torus:3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		n := sp.Norm()
		back, err := ParseSpec(n.String())
		if err != nil || back.Norm() != n {
			t.Fatalf("%q: canonical %q parses to %+v, %v; want %+v", s, n.String(), back, err, n)
		}
	})
}
