package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype identifies the element type of a message buffer. Buffers move
// through the stack as []byte in little-endian layout; the conversion
// helpers below are the only places that interpret them.
//
// The paper's workloads are "double-word" (Float64) messages, and every
// entry point reduces those; Byte carries the split-phase barrier's
// one-byte arrival token.
type Datatype int

// Supported datatypes.
const (
	Byte Datatype = iota
	Float64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Byte:
		return 1
	case Float64:
		return 8
	}
	panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
}

// String implements fmt.Stringer.
func (d Datatype) String() string {
	switch d {
	case Byte:
		return "byte"
	case Float64:
		return "float64"
	}
	return "unknown"
}

// Float64sToBytes encodes vals little-endian.
func Float64sToBytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// BytesToFloat64s decodes a little-endian float64 buffer.
func BytesToFloat64s(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}
