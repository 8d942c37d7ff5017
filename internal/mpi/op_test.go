package mpi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDatatypeSizes(t *testing.T) {
	want := map[Datatype]int{Byte: 1, Float64: 8}
	for d, n := range want {
		if d.Size() != n {
			t.Errorf("%v.Size() = %d, want %d", d, d.Size(), n)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got := BytesToFloat64s(Float64sToBytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestApplyFloat64AgainstReference checks every arithmetic operator
// against a plain Go fold.
func TestApplyFloat64AgainstReference(t *testing.T) {
	ref := map[Op]func(a, b float64) float64{
		OpSum:  func(a, b float64) float64 { return a + b },
		OpProd: func(a, b float64) float64 { return a * b },
		OpMax:  math.Max,
		OpMin:  math.Min,
		OpLAnd: func(a, b float64) float64 {
			if a != 0 && b != 0 {
				return 1
			}
			return 0
		},
		OpLOr: func(a, b float64) float64 {
			if a != 0 || b != 0 {
				return 1
			}
			return 0
		},
	}
	for op, fold := range ref {
		op, fold := op, fold
		f := func(a, b []float64) bool {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			if n == 0 {
				return true
			}
			a, b = a[:n], b[:n]
			for i := range a { // keep NaN out: NaN semantics differ per op
				if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
					a[i] = 1
				}
				if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
					b[i] = 2
				}
			}
			dst := Float64sToBytes(a)
			Apply(op, Float64, dst, Float64sToBytes(b), n)
			got := BytesToFloat64s(dst)
			for i := range got {
				if got[i] != fold(a[i], b[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("op %v: %v", op, err)
		}
	}
}

func TestApplyByteBitwise(t *testing.T) {
	dst := []byte{0xF0, 0x0F, 0xAA}
	src := []byte{0x0F, 0x0F, 0x55}
	Apply(OpBOr, Byte, dst, src, 3)
	for i, want := range []byte{0xFF, 0x0F, 0xFF} {
		if dst[i] != want {
			t.Errorf("byte %d = %#x, want %#x", i, dst[i], want)
		}
	}
}

func TestApplyBitwiseOnFloatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bitwise op on float64")
		}
	}()
	Apply(OpBAnd, Float64, make([]byte, 8), make([]byte, 8), 1)
}

func TestApplyShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short buffer")
		}
	}()
	Apply(OpSum, Float64, make([]byte, 8), make([]byte, 8), 2)
}

// TestApplyCommutative verifies the commutativity the asynchronous
// processing relies on: children may be combined in any arrival order.
func TestApplyCommutative(t *testing.T) {
	f := func(a, b, c []float64) bool {
		n := len(a)
		for _, x := range [][]float64{b, c} {
			if len(x) < n {
				n = len(x)
			}
		}
		if n == 0 {
			return true
		}
		// Map to small integers so float sums are exact: the test is
		// about combination order, not rounding.
		for i := 0; i < n; i++ {
			for _, s := range [][]float64{a, b, c} {
				v := s[i]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1
				}
				s[i] = float64(int64(v) % 1000)
			}
		}
		for _, op := range []Op{OpSum, OpMax, OpMin} {
			x := Float64sToBytes(a[:n])
			Apply(op, Float64, x, Float64sToBytes(b[:n]), n)
			Apply(op, Float64, x, Float64sToBytes(c[:n]), n)
			y := Float64sToBytes(a[:n])
			Apply(op, Float64, y, Float64sToBytes(c[:n]), n)
			Apply(op, Float64, y, Float64sToBytes(b[:n]), n)
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpStringAndValidity(t *testing.T) {
	if OpSum.String() != "sum" || OpBXor.String() != "bxor" {
		t.Error("op names wrong")
	}
	if OpBAnd.ValidFor(Float64) {
		t.Error("band must be invalid for float64")
	}
	if !OpBAnd.ValidFor(Byte) || !OpSum.ValidFor(Float64) {
		t.Error("validity too strict")
	}
}
