package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"abred/internal/coll"
)

// Normalizing a spec costs the same at any node count: nothing sized by
// Nodes is built to validate it, so cache hits at the largest clusters
// stay cheap.
func TestNormalizeAllocsFlatInNodes(t *testing.T) {
	s := Spec{Nodes: 1 << 20, Topo: "fattree:16", Engine: "flow"}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Normalize(Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("Normalize of a %d-node spec allocates %d B, want < 64 KB", s.Nodes, per)
	}
}

// Every reduction has one name. The spec surface spells an algorithm as
// coll.Algo's String and parses it back with coll.ParseAlgo; what serve
// refuses, it refuses by asking the package that owns the rule, and
// still answers 400 for it.
func TestOneReductionName(t *testing.T) {
	h := newTestServer(t, Options{Workers: 1}).Handler()
	for _, tc := range []struct {
		algo   coll.Algo
		spec   bool   // the spec surface accepts the name
		packet string // 400 text on the packet engine, "" if accepted
		flow   string // 400 text on the flow engine, "" if accepted
	}{
		{coll.AlgoBinomial, true, "", ""},
		{coll.AlgoAB, true, "", ""},
		{coll.AlgoNIC, true, "", "flow engine does not model"},
		{coll.AlgoSplit, false, "unknown mode", "unknown mode"},
	} {
		name := tc.algo.String()
		back, err := coll.ParseAlgo(name)
		if tc.spec != (err == nil) || (tc.spec && back != tc.algo) {
			t.Errorf("ParseAlgo(%q) = %v, %v; spec surface accepts it: %v", name, back, err, tc.spec)
		}
		for engine, refusal := range map[string]string{"packet": tc.packet, "flow": tc.flow} {
			body := fmt.Sprintf(`{"nodes":8,"mode":%q,"engine":%q}`, name, engine)
			if refusal != "" {
				w := post(t, h, body)
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), refusal) {
					t.Errorf("%s: status %d body %q, want 400 mentioning %q", body, w.Code, w.Body.String(), refusal)
				}
				continue
			}
			var s Spec
			if err := json.Unmarshal([]byte(body), &s); err != nil {
				t.Fatal(err)
			}
			n, err := s.Normalize(Limits{})
			if err != nil || n.Mode != name {
				t.Errorf("%s: normalized mode %q, err %v; want %q", body, n.Mode, err, name)
			}
		}
	}
}
