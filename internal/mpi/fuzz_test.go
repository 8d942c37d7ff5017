package mpi

import (
	"bytes"
	"testing"
)

// FuzzApply drives the reduction kernels with arbitrary buffers and
// checks memory-safety invariants: Apply never touches bytes beyond
// count*size and never reads from dst into src.
func FuzzApply(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(2), uint8(1), make([]byte, 32), make([]byte, 32))
	f.Add(uint8(8), uint8(0), []byte{0xFF, 0x00, 0xAA, 0x55}, []byte{0x0F, 0xF0, 0x33, 0xCC})
	f.Fuzz(func(t *testing.T, opRaw, dtRaw uint8, dst, src []byte) {
		op := Op(opRaw % 9)
		dt := Datatype(dtRaw % 2)
		if !op.ValidFor(dt) {
			return
		}
		// The fuzzing engine may hand over slices sharing a backing
		// array; copy so the aliasing checks below test Apply, not the
		// harness.
		dst = append([]byte(nil), dst...)
		src = append([]byte(nil), src...)
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		count := n / dt.Size()
		if count == 0 {
			return
		}
		limit := count * dt.Size()

		dstCopy := append([]byte(nil), dst...)
		srcCopy := append([]byte(nil), src...)
		Apply(op, dt, dst, src, count)

		if !bytes.Equal(src, srcCopy) {
			t.Fatalf("Apply mutated src")
		}
		if !bytes.Equal(dst[limit:], dstCopy[limit:]) {
			t.Fatalf("Apply wrote past element %d", count)
		}
		// Idempotence spot-checks for the absorbing operators.
		switch op {
		case OpMax, OpMin, OpBOr, OpBAnd, OpLOr, OpLAnd:
			again := append([]byte(nil), dst...)
			Apply(op, dt, again, src, count)
			Apply(op, dt, dst, src, count)
			if !bytes.Equal(again, dst) {
				t.Fatalf("%v/%v not deterministic on reapplication", op, dt)
			}
		}
	})
}

// FuzzEnvelopeMatching checks the matcher against its definition for
// arbitrary envelopes and wildcards.
func FuzzEnvelopeMatching(f *testing.F) {
	f.Add(uint16(1), int32(5), int32(0), true, true)
	f.Fuzz(func(t *testing.T, ctx uint16, tag int32, srcRank int32, wildSrc, wildTag bool) {
		if srcRank < 0 {
			srcRank = -srcRank
		}
		if tag < 0 {
			tag = -tag
		}
		m := &uMsg{ctx: ctx, tag: tag, srcRank: srcRank}
		src := int(srcRank)
		if wildSrc {
			src = AnySource
		}
		wantTag := tag
		if wildTag {
			wantTag = AnyTag
		}
		if !m.matches(ctx, src, wantTag) {
			t.Fatalf("self-match failed: %+v", m)
		}
		if m.matches(ctx+1, src, wantTag) {
			t.Fatal("matched wrong context")
		}
		if !wildSrc && m.matches(ctx, src+1, wantTag) {
			t.Fatal("matched wrong source")
		}
		if !wildTag && m.matches(ctx, src, wantTag+1) {
			t.Fatal("matched wrong tag")
		}
	})
}
