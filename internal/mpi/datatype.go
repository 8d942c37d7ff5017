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
// The paper's workloads are "double-word" (Float64) messages; the other
// types exist because a reduction library is useless without them.
type Datatype int

// Supported datatypes.
const (
	Byte Datatype = iota
	Int32
	Int64
	Uint64
	Float32
	Float64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Uint64, Float64:
		return 8
	}
	panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
}

// String implements fmt.Stringer.
func (d Datatype) String() string {
	switch d {
	case Byte:
		return "byte"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	case Float32:
		return "float32"
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

// Int64sToBytes encodes vals little-endian.
func Int64sToBytes(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// BytesToInt64s decodes a little-endian int64 buffer.
func BytesToInt64s(b []byte) []int64 {
	vals := make([]int64, len(b)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// Int32sToBytes encodes vals little-endian.
func Int32sToBytes(vals []int32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// BytesToInt32s decodes a little-endian int32 buffer.
func BytesToInt32s(b []byte) []int32 {
	vals := make([]int32, len(b)/4)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vals
}

// Uint64sToBytes encodes vals little-endian.
func Uint64sToBytes(vals []uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// BytesToUint64s decodes a little-endian uint64 buffer.
func BytesToUint64s(b []byte) []uint64 {
	vals := make([]uint64, len(b)/8)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vals
}
