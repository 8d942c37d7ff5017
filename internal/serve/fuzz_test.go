package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNormalize: any body the /run handler decodes normalizes without
// panicking, and a normalized spec normalizes to itself under the same
// Key. The content-addressed cache depends on both: every spelling of a
// scenario must land on one key, and a 400 must never be a crash.
func FuzzNormalize(f *testing.F) {
	seeds := append([]Spec(nil), keySpecs...)
	seeds = append(seeds, // the serve_mix benchmark's five cold shapes
		Spec{Nodes: 64, Mode: "ab"},
		Spec{Nodes: 64, Mode: "nab"},
		Spec{Nodes: 64, Topo: "fattree:8", Loss: 0.01},
		Spec{Nodes: 64, Topo: "fattree:8:o4", Jobs: 4, Place: "greedy"},
		Spec{Nodes: 4096, Engine: "flow", Topo: "fattree:16", Iters: 3},
	)
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var raw Spec
		if dec.Decode(&raw) != nil {
			return
		}
		n1, err := raw.Normalize(Limits{})
		if err != nil {
			return
		}
		n2, err := n1.Normalize(Limits{})
		if err != nil {
			t.Fatalf("%s: normalized spec %+v refused: %v", body, n1, err)
		}
		if n1 != n2 || n1.Key() != n2.Key() {
			t.Fatalf("%s: Normalize is not a fixed point:\n%+v\n%+v", body, n1, n2)
		}
	})
}
