// Package core implements the paper's primary contribution: the generic
// data-dependence profiler. It contains the signature-based detection engine
// (Algorithm 1), the serial profiler (§III), the lock-free parallel profiler
// for sequential targets (§IV) with heavy-hitter load balancing (§IV-A), and
// the multi-threaded-target profiler with timestamp-based data-race flagging
// (§V).
package core

import (
	"math/bits"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// LoopDeps aggregates, per static loop, the dependences carried by that loop.
// Parallelism discovery consumes this table: a loop with no carried RAW is a
// candidate for parallelization (paper §VII-A).
type LoopDeps struct {
	// CarriedRAW counts distinct carried RAW dependences; CarriedRAWRed of
	// those, the ones whose every instance joined two reduction accesses.
	CarriedRAW    int
	CarriedRAWRed int
	CarriedWAR    int
	CarriedWAW    int
	// MinRAWDist is the smallest iteration gap observed over all carried
	// RAW instances of this loop (0 when CarriedRAW is 0). A distance of
	// d >= 2 means iterations i and i+1 never conflict: the loop supports
	// d-way DOACROSS/wavefront execution even though it is not DOALL.
	MinRAWDist uint32
	// Iterations is the total number of iterations observed (filled in from
	// the interpreter's loop records by the caller, not by the engine).
	Iterations uint64
}

// Engine applies Algorithm 1 to a stream of accesses against one Store.
// It is not safe for concurrent use; the parallel profiler gives each worker
// its own Engine over a disjoint address subset.
type Engine struct {
	store sig.Store
	meta  *prog.Meta
	deps  *dep.Set
	loops map[prog.LoopID]*loopAgg
	// raceCheck enables timestamp-reversal detection (MT-target mode).
	raceCheck bool
	// noCache disables the instance cache: the reference engine the
	// equivalence suites hold every pipeline to (output is identical either
	// way).
	noCache bool
	// epoch is the current epoch-clock reading, stamped onto per-loop
	// aggregate tables created from now on (the dependence set carries its
	// own copy); advanced by ExtractEpochDelta.
	epoch uint32
	// trackBounds enables the per-variable address-interval index behind
	// address-range provenance queries; bounds is that index, by VarID.
	trackBounds bool
	bounds      []varBound

	// cache is a direct-mapped instance cache over dependence identity: the
	// overwhelmingly common case is the same static dependence firing every
	// iteration (the instance redundancy dependence merging exploits for
	// space, §III-B), so memoizing the map entries for the last key that
	// hashed to each slot turns the per-instance map lookups — the dependence
	// set and, for carried instances, the per-loop aggregate — into pointer
	// dereferences.
	cache       [depCacheSize]depCacheEntry
	cacheHits   uint64
	cacheProbes uint64
}

// depCacheSize is the number of direct-mapped instance-cache entries. The
// working set is the static dependence count of the profiled region, which
// the paper's merging ablation puts orders of magnitude below this.
const (
	depCacheSize = 1 << 9
	depCacheMask = depCacheSize - 1
)

// depCacheEntry memoizes the merged-set entry for one dependence key and,
// when the key's last instance was loop-carried, the per-loop aggregate
// record, so a repeat instance updates both without any map operation.
type depCacheEntry struct {
	key  dep.Key
	st   *dep.Stats
	agg  *loopAgg    // aggregate of `loop` (nil until a carried instance)
	ck   *dep.Stats  // this key's record within agg.keys (Reduction = allRed)
	loop prog.LoopID // loop of the last carried instance (NoLoop if none)
}

// keyHash mixes a dependence key into an instance-cache index. One multiply
// over both packed words keeps the hit path short; XORing y rotated by 32
// puts Var against Src and the thread/type bits against Sink, so keys
// differing in any single field land on distinct inputs to the multiplier.
func keyHash(k dep.Key) uint32 {
	x := uint64(k.Sink) | uint64(k.Src)<<32
	y := uint64(k.Var) | uint64(uint16(k.SinkThread))<<32 |
		uint64(uint16(k.SrcThread))<<48 | uint64(k.Type)<<40
	h := (x ^ bits.RotateLeft64(y, 32)) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// loopAgg tracks distinct carried dependence keys per loop so LoopDeps can
// report unique counts rather than instance counts. The key set is a
// dep.Set — the same slab-backed table as the dependence sets — with a
// key's Stats.Reduction standing in for "every carried instance so far
// joined two reduction accesses" (a fresh Ref starts Reduction true, and
// both the engine and Set.Merge fold it with AND, which is exactly the
// carried-reduction rule). Ref's pointer stability lets the instance cache
// update a record without a lookup, and worker tables fold through the same
// cache-linear merge as the dependence sets.
type loopAgg struct {
	keys       *dep.Set
	minRAWDist uint32
}

func newLoopAgg() *loopAgg {
	return &loopAgg{keys: dep.NewSet()}
}

// NewEngine returns an engine writing to a fresh dependence set. meta may be
// nil when loop-carried classification is not needed.
func NewEngine(store sig.Store, meta *prog.Meta, raceCheck bool) *Engine {
	return &Engine{
		store:     store,
		meta:      meta,
		deps:      dep.NewSet(),
		loops:     make(map[prog.LoopID]*loopAgg),
		raceCheck: raceCheck,
	}
}

// DisableCache switches the engine to the slow (map-per-instance) path, the
// reference the hot-path equivalence tests compare every pipeline against.
// Must be called before the first Process.
func (e *Engine) DisableCache() { e.noCache = true }

// CacheStats reports instance-cache probes and hits since construction.
func (e *Engine) CacheStats() (hits, probes uint64) { return e.cacheHits, e.cacheProbes }

// Deps returns the dependence set accumulated so far.
func (e *Engine) Deps() *dep.Set { return e.deps }

// Store returns the engine's access-history store.
func (e *Engine) Store() sig.Store { return e.store }

// Process runs one access through Algorithm 1.
//
// The paper's pseudocode nests the WAR check inside the "write slot
// non-empty" branch, which would miss a WAR whose address was only read so
// far (read x; first write x). We build the WAR from the read slot
// unconditionally — the semantically intended behaviour, consistent with the
// paper's prose ("we run the membership check to see if x exists in the
// signatures") and with its own Figure 1, and the INIT/WAW logic is
// unchanged.
func (e *Engine) Process(a event.Access) {
	switch a.Kind {
	case event.Write:
		if e.trackBounds {
			e.noteBounds(a.Var, a.Addr)
		}
		wslot, wok := e.store.LookupWrite(a.Addr)
		if !wok {
			// First write to this address: INIT (paper §III-A).
			e.record(dep.Key{
				Type: dep.INIT,
				Sink: a.Loc, SinkThread: int16(a.Thread),
				Var: a.Var,
			}, dep.INIT, prog.NoLoop, false, false, 0, 1)
		} else {
			e.build(dep.WAW, wslot, &a, 1)
		}
		if rslot, rok := e.store.LookupRead(a.Addr); rok {
			e.build(dep.WAR, rslot, &a, 1)
		}
		e.store.SetWrite(a.Addr, e.slotFor(&a))
	case event.Read:
		if e.trackBounds {
			e.noteBounds(a.Var, a.Addr)
		}
		if wslot, wok := e.store.LookupWrite(a.Addr); wok {
			// A collapsed event stands for 1+Rep identical reads against the
			// same (unchanged) write slot: 1+Rep instances of the same RAW.
			e.build(dep.RAW, wslot, &a, 1+uint64(a.Rep))
		}
		e.store.SetRead(a.Addr, e.slotFor(&a))
	case event.Remove:
		// Variable-lifetime analysis: deallocated storage is forgotten so a
		// later reuse of the address cannot fabricate a dependence.
		e.store.Remove(a.Addr)
	}
}

// slotFor packs the access into a store slot. Pointer arg: callers pass the
// addressable Process copy, sparing a 48-byte stack copy per call.
func (e *Engine) slotFor(a *event.Access) sig.Slot {
	s := sig.PackSlot(a.Loc, a.Var, a.Thread, a.CtxID, a.IterVec, a.TS)
	if a.Flags&event.FlagReduction != 0 {
		s = s.WithReduction()
	}
	if a.Flags&event.FlagInduction != 0 {
		s = s.WithInduction()
	}
	return s
}

// classify derives the full identity of a dependence instance — its key plus
// the carried/reduction/reversed classification — from the stored source slot
// and the sink access. Factored out of build so the range path can batch
// instances whose classification repeats.
func (e *Engine) classify(t dep.Type, src sig.Slot, snk *event.Access) (k dep.Key, carriedAt prog.LoopID, reduction, reversed bool, dist uint32) {
	carriedAt = prog.NoLoop
	if e.meta != nil {
		carriedAt, dist = e.meta.CarriedLoopDist(src.Ctx(), snk.CtxID, src.Iter, snk.IterVec)
	}
	// Induction-variable self-dependences (i = i + step feeding the next
	// iteration's update) are loop control: a parallelizing transformation
	// replaces the induction entirely, so they are recorded as ordinary
	// dependences (Figure 1 keeps them) but never as parallelism-preventing
	// carried dependences.
	if carriedAt != prog.NoLoop &&
		src.Induction() && snk.Flags&event.FlagInduction != 0 && src.Loc() == snk.Loc {
		carriedAt, dist = prog.NoLoop, 0
	}
	reduction = src.Reduction() && snk.Flags&event.FlagReduction != 0 &&
		src.Loc() == snk.Loc
	reversed = e.raceCheck && snk.TS < src.TS()

	k = dep.Key{
		Type: t,
		Sink: snk.Loc, SinkThread: int16(snk.Thread),
		Src: src.Loc(), SrcThread: int16(src.Thread()),
		Var: snk.Var,
	}
	return
}

// build records n instances of a dependence from the stored source slot to
// the sink access (passed by pointer for the same reason as slotFor).
func (e *Engine) build(t dep.Type, src sig.Slot, snk *event.Access, n uint64) {
	k, carriedAt, reduction, reversed, dist := e.classify(t, src, snk)
	e.record(k, t, carriedAt, reduction, reversed, dist, n)
}

// record merges n identical instances of dependence k into the set and the
// per-loop aggregates, going through the instance cache unless disabled.
func (e *Engine) record(k dep.Key, t dep.Type, carriedAt prog.LoopID, reduction, reversed bool, dist uint32, n uint64) {
	var ent *depCacheEntry
	var st *dep.Stats
	if e.noCache {
		st = e.deps.Ref(k)
	} else {
		e.cacheProbes++
		ent = &e.cache[keyHash(k)&depCacheMask]
		if ent.st != nil && ent.key == k {
			st = ent.st
			e.cacheHits++
		} else {
			st = e.deps.Ref(k)
			*ent = depCacheEntry{key: k, st: st, loop: prog.NoLoop}
		}
	}
	e.deps.ObserveVia(st, n, carriedAt != prog.NoLoop, reduction, reversed, dist)
	if carriedAt == prog.NoLoop {
		return
	}

	if ent != nil && ent.loop == carriedAt {
		// Repeat carried instance: update the memoized aggregate directly.
		// Count advances too — summaries never read it, but the epoch-delta
		// extractor detects change by Count-vs-watermark, and this keeps the
		// carried-key tables extractable like the dependence sets.
		ent.ck.Count += n
		ent.ck.Reduction = ent.ck.Reduction && reduction
		if t == dep.RAW {
			if ent.agg.minRAWDist == 0 || dist < ent.agg.minRAWDist {
				ent.agg.minRAWDist = dist
			}
		}
		return
	}
	agg := e.loops[carriedAt]
	if agg == nil {
		agg = newLoopAgg()
		agg.keys.SetEpoch(e.epoch)
		e.loops[carriedAt] = agg
	}
	ck := agg.keys.Ref(k) // fresh records start Reduction (= allRed) true
	ck.Count += n
	ck.Reduction = ck.Reduction && reduction
	if t == dep.RAW {
		if agg.minRAWDist == 0 || dist < agg.minRAWDist {
			agg.minRAWDist = dist
		}
	}
	if ent != nil {
		ent.loop, ent.agg, ent.ck = carriedAt, agg, ck
	}
}

// summary renders one loop's aggregate as a LoopDeps row.
func (agg *loopAgg) summary() *LoopDeps {
	ld := &LoopDeps{MinRAWDist: agg.minRAWDist}
	agg.keys.Range(func(k dep.Key, ck dep.Stats) bool {
		switch k.Type {
		case dep.RAW:
			ld.CarriedRAW++
			if ck.Reduction {
				ld.CarriedRAWRed++
			}
		case dep.WAR:
			ld.CarriedWAR++
		case dep.WAW:
			ld.CarriedWAW++
		}
		return true
	})
	return ld
}

// LoopDeps summarizes per-loop carried dependences.
func (e *Engine) LoopDeps() map[prog.LoopID]*LoopDeps {
	return loopDepsOf(e.loops)
}

// loopDepsOf summarizes a loop-aggregate table.
func loopDepsOf(aggs map[prog.LoopID]*loopAgg) map[prog.LoopID]*LoopDeps {
	out := make(map[prog.LoopID]*LoopDeps, len(aggs))
	for id, agg := range aggs {
		out[id] = agg.summary()
	}
	return out
}

// carriedKeysOf exposes the merged per-loop carried-key tables themselves
// (not copies): the provenance queries of the live observatory answer "what
// does loop L carry" from these after the merge, and the final watch frame
// extracts their unshipped remainder.
func carriedKeysOf(aggs map[prog.LoopID]*loopAgg) map[prog.LoopID]*dep.Set {
	out := make(map[prog.LoopID]*dep.Set, len(aggs))
	for id, agg := range aggs {
		out[id] = agg.keys
	}
	return out
}

// mergeLoopAggs folds worker carried-key tables into dst, unioning the key
// sets: the same dependence key can surface on several workers (same source
// lines, different addresses) and must count once, exactly as in a serial
// run. Reduction eligibility is the AND over all instances, so per-worker
// flags combine with AND — which is exactly Set.Merge's Reduction fold.
// mergeLoopAggs consumes src: a loop seen only there moves into dst whole,
// a shared loop's key slabs are folded and released. Both folds are
// commutative and associative, so the merge stage's tree reduction applies
// it in any pairing order.
func mergeLoopAggs(dst, src map[prog.LoopID]*loopAgg) {
	for id, s := range src {
		d := dst[id]
		if d == nil {
			dst[id] = s
			continue
		}
		d.keys.Merge(s.keys)
		s.keys.Release()
		if d.minRAWDist == 0 || (s.minRAWDist > 0 && s.minRAWDist < d.minRAWDist) {
			d.minRAWDist = s.minRAWDist
		}
	}
}
