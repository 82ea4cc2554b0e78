package dep

import (
	"runtime"
	"sync"
)

// Shard is one operand of TreeMerge: something with a dependence population
// that can absorb another operand of its own type. *Set is the plain case;
// the profiling pipeline's merge stage pairs a Set with its loop aggregates
// so both fold at the same tree level.
type Shard[T any] interface {
	// Unique is the operand's size; the larger of a pair is kept as the
	// accumulator.
	Unique() int
	// Absorb folds o into the receiver and consumes o.
	Absorb(o T)
}

// TreeMerge unions shards by parallel tree reduction: each round pairs
// shards off and merges the pairs concurrently, so with W shards the
// end-of-run latency is the depth of the tree, O(log W), instead of the
// serial fold's O(W). Within a pair the larger shard is kept as the
// accumulator — folding the smaller into the bigger minimizes Ref misses and
// index regrows. Rounds write into a fresh slice, so no goroutine reads a
// slot another is writing. Because the per-dependence fold (Count sum,
// Carried/Reversed OR, Reduction AND, MinDist min, MaxDist max) is
// commutative and associative, the result is exactly the serial fold's;
// FuzzSetMergeEquivalence pins the two byte-identical under the canonical
// encoding.
//
// TreeMerge consumes its inputs: every shard but the returned one is
// absorbed. shards must be non-empty and hold no nil entries.
func TreeMerge[T Shard[T]](shards []T) T {
	// On a single processor the goroutine rounds cannot overlap, and the
	// tree re-folds a pair's entries at every level it survives; a flat fold
	// into the largest shard does strictly less work, so take that path.
	if runtime.GOMAXPROCS(0) == 1 {
		big := 0
		for i, s := range shards {
			if s.Unique() > shards[big].Unique() {
				big = i
			}
		}
		for i, s := range shards {
			if i != big {
				shards[big].Absorb(s)
			}
		}
		return shards[big]
	}
	for len(shards) > 1 {
		half := len(shards) / 2
		next := make([]T, half, half+1)
		var wg sync.WaitGroup
		for i := 0; i < half; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a, b := shards[2*i], shards[2*i+1]
				if b.Unique() > a.Unique() {
					a, b = b, a
				}
				a.Absorb(b)
				next[i] = a
			}(i)
		}
		wg.Wait()
		if len(shards)%2 == 1 {
			next = append(next, shards[len(shards)-1])
		}
		shards = next
	}
	return shards[0]
}

// Absorb implements Shard: it merges o into s and releases o's slab pages
// back to the pool. The caller must not use o (or Stats pointers into it)
// afterwards.
func (s *Set) Absorb(o *Set) {
	s.Merge(o)
	o.Release()
}

// MergeShards is TreeMerge over plain dependence sets: nil entries are
// skipped, and an empty input yields a fresh empty Set. Like TreeMerge it
// consumes its inputs.
func MergeShards(shards []*Set) *Set {
	live := shards[:0:0]
	for _, s := range shards {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return NewSet()
	}
	return TreeMerge(live)
}
