package main

import (
	"time"

	"repro/internal/bench"
)

// The host the benchmark runs on changes speed on its own: on a shared
// 2-vCPU virtual machine the same list-read run measures anywhere from
// ~160k to ~365k ops/s depending on what the machine's other tenants do,
// in stretches that last from seconds to minutes. No statistic of the
// workload alone separates that from a change of the program. So every
// worker also times, about every refEvery, a fixed reference kernel that
// uses none of the repository's code, and the end-to-end timing figures
// are reported both raw and normalised to a host on which that kernel runs
// at refNominalNs per hop.
//
// The kernel is a walk over a private singly linked list of refNodes
// 24-byte nodes, packed in one array (24 KB, inside L1) and linked in a
// fixed shuffled order, with one interface call and one comparison against
// a shared word per hop: the shape of a protected list traversal
// (dependent loads, an indirect call, a load of a global era) without any
// of its code. Sampled beside list-read for 200 s, its speed tracked the
// workload's at a correlation of 0.97 per 1-s sub-window and 0.99 per 20-s
// block; the same walk over 64-byte nodes (64 KB, past L1) tracked at 0.72
// and 0.95 and moved only half as far as the workload, and an ALU chain or
// plain pointer chases did worse still.
const (
	refNodes     = 1000
	refPasses    = 100                   // timed walks per reference sample
	refEvery     = 50 * time.Millisecond // per worker, ~1% of its time
	refNominalNs = 5.0                   // ns per hop of the normalised host
	refSeed      = 0x5EED_0F_2E_F1157    // fixed: the kernel is the same in every run
)

type refNode struct {
	next *refNode
	key  uint64
	era  uint64
}

type refStepper interface {
	step(n *refNode, era *uint64) *refNode
}

type refStep struct{}

// step is the kernel's per-hop call, kept out of line so every hop pays a
// real indirect call, as a traversal through the reclaim.Domain interface
// does.
//
//go:noinline
func (refStep) step(n *refNode, era *uint64) *refNode {
	if n.era > *era {
		return nil
	}
	return n.next
}

var (
	refStepImpl refStepper = refStep{}
	refEra      uint64     = 1 << 40 // read by every hop, never written
)

// refKernels holds one kernel per worker index, built once per process, so
// every instance of a run times the same memory.
var refKernels []*refList

func refKernel(worker int) *refList {
	for len(refKernels) <= worker {
		refKernels = append(refKernels, newRefList())
	}
	return refKernels[worker]
}

// refList is one worker's reference kernel.
type refList struct {
	nodes []refNode
	head  *refNode
	sink  uint64 // keeps the walks' loads live
}

func newRefList() *refList {
	r := &refList{nodes: make([]refNode, refNodes)}
	order := make([]int, refNodes)
	for i := range order {
		order[i] = i
	}
	rng := bench.NewSplitMix64(refSeed)
	for i := refNodes - 1; i > 0; i-- {
		j := int(rng.Intn(uint64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	for i, idx := range order {
		n := &r.nodes[idx]
		n.key = uint64(i)
		if i+1 < refNodes {
			n.next = &r.nodes[order[i+1]]
		}
	}
	r.head = &r.nodes[order[0]]
	return r
}

//go:noinline
func (r *refList) walk(passes int) {
	var sum uint64
	for p := 0; p < passes; p++ {
		for n := r.head; n != nil; n = refStepImpl.step(n, &refEra) {
			sum += n.key
		}
	}
	r.sink += sum
}

// sample walks the list once untimed, so the timed walks find it cached,
// then refPasses times, and returns the timed nanoseconds and hops.
func (r *refList) sample() (ns, hops int64) {
	r.walk(1)
	t0 := now()
	r.walk(refPasses)
	return now() - t0, refPasses * refNodes
}
