package coll

import (
	"testing"

	"abred/internal/mpi"
)

func TestAlltoall(t *testing.T) {
	for _, size := range []int{2, 3, 7, 8} {
		size := size
		count := 2
		got := make([][]float64, size)
		runWorld(size, int64(size), func(w *mpi.Comm) {
			rank := w.Rank()
			// Block for peer j: {rank*100+j, j*100+rank}.
			send := make([]float64, count*size)
			for j := 0; j < size; j++ {
				send[2*j] = float64(rank*100 + j)
				send[2*j+1] = float64(j*100 + rank)
			}
			recv := make([]byte, count*size*8)
			Alltoall(w, f64s(send...), recv, count, mpi.Float64)
			got[rank] = mpi.BytesToFloat64s(recv)
		})
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				// Block j in rank i's recvbuf came from rank j's block i.
				if got[i][2*j] != float64(j*100+i) || got[i][2*j+1] != float64(i*100+j) {
					t.Fatalf("size %d: rank %d block %d = %v", size, i, j, got[i][2*j:2*j+2])
				}
			}
		}
	}
}

func TestAlltoallSingleRank(t *testing.T) {
	runWorld(1, 1, func(w *mpi.Comm) {
		recv := make([]byte, 8)
		Alltoall(w, f64s(9), recv, 1, mpi.Float64)
		if mpi.BytesToFloat64s(recv)[0] != 9 {
			t.Error("self alltoall failed")
		}
	})
}
