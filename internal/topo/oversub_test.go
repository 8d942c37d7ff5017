package topo

import (
	"testing"
)

// TestOversubIdentity pins the byte-identity guarantee: Oversub 0 and 1
// both mean full bisection, and a fabric built with either is
// link-for-link identical to one built before the ratio existed
// (represented by the zero-Oversub spec).
func TestOversubIdentity(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		n    int
	}{
		{Spec{Kind: FatTree, K: 4}, 16},
		{Spec{Kind: FatTree, K: 16}, 64},
		{Spec{Kind: LeafSpine, K: 8}, 64},
	} {
		base := Build(tc.spec, tc.n)
		one := tc.spec
		one.Oversub = 1
		built := Build(one, tc.n)
		if built.Links() != base.Links() {
			t.Fatalf("%v n=%d: o=1 has %d links, o=0 has %d", tc.spec, tc.n, built.Links(), base.Links())
		}
		if built.Spec() != base.Spec() {
			t.Fatalf("%v: o=1 spec %v does not normalize to %v", tc.spec, built.Spec(), base.Spec())
		}
		for src := 0; src < tc.n; src += 3 {
			for dst := 0; dst < tc.n; dst += 5 {
				a, b := route(base, src, dst), route(built, src, dst)
				if len(a) != len(b) {
					t.Fatalf("route %d->%d: o=0 %v vs o=1 %v", src, dst, a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("route %d->%d link %d: o=0 %v vs o=1 %v", src, dst, i, a, b)
					}
				}
			}
		}
	}
}

// TestOversubTaper pins the tapered fabric's structure: a ratio of o
// keeps 1/o of each tier's links, routes stay valid (in range, same
// hop count), and flows that used distinct up-links at full bisection
// now share one — the contention the tenancy sweep measures.
func TestOversubTaper(t *testing.T) {
	spec := Spec{Kind: FatTree, K: 16} // m=8
	o4 := Spec{Kind: FatTree, K: 16, Oversub: 4}
	n := 64 // two levels: leaves of 8 hosts, one spine tier
	full := Build(spec, n)
	thin := Build(o4, n)

	if want := full.Links() / 4; thin.Links() != want {
		t.Fatalf("o=4 links = %d, want %d (full %d / 4)", thin.Links(), want, full.Links())
	}

	// Every route stays in range and keeps the full-bisection hop count:
	// the taper removes links, not switch crossings.
	var p Path
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			thin.Route(src, dst, &p)
			for i := 0; i < p.N; i++ {
				if l := int(p.Links[i]); l < 0 || l >= thin.Links() {
					t.Fatalf("route %d->%d: link %d out of range [0,%d)", src, dst, l, thin.Links())
				}
			}
			if full.Hops(src, dst) != thin.Hops(src, dst) {
				t.Fatalf("hops %d->%d: full %d vs thin %d", src, dst,
					full.Hops(src, dst), thin.Hops(src, dst))
			}
		}
	}

	// Hosts 0..7 share leaf 0 with exactly 2 up-links at o=4 (8/4);
	// their 8 distinct full-bisection uplink choices toward distinct
	// far-away destinations must collapse onto those 2.
	seen := map[int32]bool{}
	for dst := 8; dst < 16; dst++ {
		thin.Route(0, dst, &p)
		if p.N != 2 {
			t.Fatalf("route 0->%d: %d links, want 2", dst, p.N)
		}
		seen[p.Links[0]] = true
	}
	if len(seen) != 2 {
		t.Fatalf("leaf 0 used %d distinct up-links at o=4, want 2", len(seen))
	}
	fullSeen := map[int32]bool{}
	for dst := 8; dst < 16; dst++ {
		full.Route(0, dst, &p)
		fullSeen[p.Links[0]] = true
	}
	if len(fullSeen) != 8 {
		t.Fatalf("leaf 0 used %d distinct up-links at full bisection, want 8", len(fullSeen))
	}
}

// TestOversubSpecForms pins flag parsing, rendering and validation of
// the oversubscription suffix.
func TestOversubSpecForms(t *testing.T) {
	got, err := ParseSpec("fattree:16:o4")
	if err != nil || got != (Spec{Kind: FatTree, K: 16, Oversub: 4}) {
		t.Fatalf("ParseSpec(fattree:16:o4) = %v, %v", got, err)
	}
	if s := got.String(); s != "fattree:16:o4" {
		t.Fatalf("String() = %q, want fattree:16:o4", s)
	}
	// o1 normalizes away: same shape as the bare spec.
	got, err = ParseSpec("leafspine:8:o1")
	if err != nil || got != (Spec{Kind: LeafSpine, K: 8}) {
		t.Fatalf("ParseSpec(leafspine:8:o1) = %v, %v", got, err)
	}
	for _, bad := range []string{"fattree:16:o0x", "fattree:16:4", "fattree:16:oo",
		"crossbar:o4"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) did not fail", bad)
		}
	}
	if err := (Spec{Kind: Crossbar, Oversub: 4}).Validate(); err == nil {
		t.Error("crossbar with Oversub 4 validated")
	}
	if err := (Spec{Kind: FatTree, K: 16, Oversub: -1}).Validate(); err == nil {
		t.Error("negative Oversub validated")
	}
}
