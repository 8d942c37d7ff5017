package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Op is a reduction operator. All provided operators are associative and
// commutative, which lets the tree algorithms combine children in
// arrival order (the property the application-bypass implementation
// depends on: asynchronous processing combines children in whatever
// order their messages arrive).
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpLAnd // logical and (nonzero = true)
	OpLOr  // logical or
	OpBAnd // bitwise and (Byte only)
	OpBOr  // bitwise or
	OpBXor // bitwise xor
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpLAnd:
		return "land"
	case OpLOr:
		return "lor"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	case OpBXor:
		return "bxor"
	}
	return "unknown"
}

// ValidFor reports whether the operator is defined for datatype d
// (bitwise operators require the integer type).
func (op Op) ValidFor(d Datatype) bool {
	switch op {
	case OpBAnd, OpBOr, OpBXor:
		return d == Byte
	default:
		return true
	}
}

// number covers the arithmetic element types the generic kernel handles.
type number interface {
	~uint8 | ~float64
}

func boolToT[T number](b bool) T {
	if b {
		return 1
	}
	return 0
}

// combineScalar applies an arithmetic op to one element: a op b. Apply
// folds with it in place, without materializing decoded slices.
func combineScalar[T number](op Op, a, b T) T {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpLAnd:
		return boolToT[T](a != 0 && b != 0)
	case OpLOr:
		return boolToT[T](a != 0 || b != 0)
	}
	panic(fmt.Sprintf("mpi: operator %v not handled by arithmetic kernel", op))
}

// Apply combines count elements of type d: dst = dst op src, in place in
// dst. Both buffers must hold at least count elements.
func Apply(op Op, d Datatype, dst, src []byte, count int) {
	n := count * d.Size()
	if len(dst) < n || len(src) < n {
		panic(fmt.Sprintf("mpi: Apply buffer too small: need %d, have dst=%d src=%d", n, len(dst), len(src)))
	}
	if !op.ValidFor(d) {
		panic(fmt.Sprintf("mpi: operator %v undefined for %v", op, d))
	}
	switch op {
	case OpBAnd, OpBOr, OpBXor:
		applyBitwise(op, dst[:n], src[:n])
		return
	}
	// Each case folds in place, element by element: the decoded-slice
	// round trip the old code paid (three heap allocations per Apply)
	// is pure overhead on the reduction hot path.
	switch d {
	case Float64:
		for i := 0; i+8 <= n; i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(combineScalar(op, a, b)))
		}
	case Byte:
		for i := range dst[:n] {
			dst[i] = combineScalar(op, dst[i], src[i])
		}
	default:
		panic(fmt.Sprintf("mpi: unknown datatype %v", d))
	}
}

// applyBitwise handles the bitwise operators, defined on Byte only.
func applyBitwise(op Op, dst, src []byte) {
	for i := range dst {
		switch op {
		case OpBAnd:
			dst[i] &= src[i]
		case OpBOr:
			dst[i] |= src[i]
		case OpBXor:
			dst[i] ^= src[i]
		}
	}
}
