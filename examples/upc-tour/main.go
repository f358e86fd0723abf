// UPC runtime tour: exercises the PGAS substrate directly — the emulated
// equivalents of upc_alloc, pointer-to-shared dereference,
// upc_memget_ilist, bupc_memget_vlist_async, upc_lock, barriers and
// collectives — and shows how simulated time exposes communication cost.
//
// This is the substrate the Barnes-Hut code is written against; use it to
// build other irregular PGAS applications.
package main

import (
	"fmt"

	"upcbh/internal/machine"
	"upcbh/internal/upc"
)

func main() {
	m := machine.MustNew(4, 1, false, machine.Power5())
	rt := upc.NewRuntime(m)
	heap := upc.NewHeap[[16]float64](rt, 4096)
	lock := rt.NewLock(0)
	counter := upc.NewScalar(rt, 0.0)

	rt.Run(func(t *upc.Thread) {
		me := t.ID()

		// Every thread allocates a block in its local shared memory.
		block := heap.Alloc(t, 64)
		for i := 0; i < 64; i++ {
			v := heap.Local(t, upc.Ref{Thr: int32(me), Idx: block.Idx + int32(i)})
			v[0] = float64(me*1000 + i)
		}
		t.Barrier()

		// Fine-grained remote dereference: expensive (a round trip each).
		before := t.Now()
		right := (me + 1) % t.P()
		var sum float64
		for i := 0; i < 8; i++ {
			v := heap.Get(t, upc.Ref{Thr: int32(right), Idx: int32(i)})
			sum += v[0]
		}
		fine := t.Now() - before

		// Aggregated gather of the same data: one message.
		before = t.Now()
		refs := make([]upc.Ref, 8)
		for i := range refs {
			refs[i] = upc.Ref{Thr: int32(right), Idx: int32(i)}
		}
		dst := make([][16]float64, 8)
		heap.Gather(t, refs, dst)
		coarse := t.Now() - before

		// Non-blocking: overlap the transfer with local work.
		before = t.Now()
		h := heap.GatherAsync(t, refs, dst)
		for i := 0; i < 1000; i++ {
			t.Charge(100e-9) // useful local computation
		}
		t.WaitSync(&h)
		overlapped := t.Now() - before

		if me == 0 {
			fmt.Printf("8 fine-grained remote derefs: %8.1f us simulated\n", fine*1e6)
			fmt.Printf("1 aggregated gather (ilist):  %8.1f us simulated\n", coarse*1e6)
			fmt.Printf("gather overlapped w/ compute: %8.1f us simulated (100us of it useful work)\n", overlapped*1e6)
		}
		t.Barrier()

		// Locks serialize in simulated time too.
		lock.Acquire(t)
		counter.Write(t, counter.Read(t)+1)
		lock.Release(t)
		t.Barrier()

		// Collectives: scalar and vector reduce&broadcast, all-to-all.
		total := upc.AllReduceF64(t, float64(me+1), upc.OpSum)
		vec := upc.AllReduceVecF64(t, []float64{float64(me), 1}, upc.OpSum)
		send := make([][]int, t.P())
		for j := range send {
			send[j] = []int{me*10 + j}
		}
		recv := upc.AllToAll(t, send, nil)
		if me == 0 {
			fmt.Printf("\ncounter after locked updates: %.0f (threads: %d)\n", counter.Peek(), t.P())
			fmt.Printf("allreduce sum(1..P) = %.0f, vector reduce = %v\n", total, vec)
			fmt.Printf("alltoall row 0 received: %d %d %d %d\n", recv[0][0], recv[1][0], recv[2][0], recv[3][0])
			fmt.Printf("final simulated clock on thread 0: %.1f us\n", t.Now()*1e6)
		}
	})
}
