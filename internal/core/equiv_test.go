package core

import (
	"fmt"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// equivStream is one workload of the fast-vs-slow equivalence suite: a
// deterministic access stream plus the loop metadata to classify it.
type equivStream struct {
	name string
	meta *prog.Meta
	evs  []event.Access
}

// equivSuite builds streams covering every hot-path special case: carried
// RAW/WAR/WAW, reductions, induction self-dependences, consecutive duplicate
// reads (the producer filter's target), variable lifetime, nested loops, and
// timestamped cross-thread accesses.
func equivSuite() []equivStream {
	var suite []equivStream

	{
		// Carried RAW at distance 1 plus within-iteration RAW, over a window
		// of addresses so every worker owns some of the stream.
		m := prog.NewMeta()
		l := m.AddLoop(prog.Loop{Name: "carried"})
		ctx := m.PushCtx(0, l)
		var evs []event.Access
		for it := uint32(0); it < 200; it++ {
			iv := event.PackIterVec([]uint32{it})
			a := 0x1000 + uint64(it%64)*8
			if it > 0 {
				prev := 0x1000 + uint64((it-1)%64)*8
				evs = append(evs, event.Access{Addr: prev, Kind: event.Read, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv})
			}
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv})
		}
		suite = append(suite, equivStream{"carried-raw", m, evs})
	}

	{
		// Reduction and induction flags: sum += a[i]; i++ per iteration,
		// with the duplicate-read shape (same read repeated back to back).
		m := prog.NewMeta()
		l := m.AddLoop(prog.Loop{Name: "reduce"})
		ctx := m.PushCtx(0, l)
		var evs []event.Access
		const sum, ind = 0x8000, 0x8008
		for it := uint32(0); it < 150; it++ {
			iv := event.PackIterVec([]uint32{it})
			a := 0x2000 + uint64(it)*8
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: sum, Kind: event.Read, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction},
				event.Access{Addr: sum, Kind: event.Write, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction},
				event.Access{Addr: ind, Kind: event.Read, Loc: loc.Pack(2, 22), CtxID: ctx, IterVec: iv, Flags: event.FlagInduction},
				event.Access{Addr: ind, Kind: event.Write, Loc: loc.Pack(2, 22), CtxID: ctx, IterVec: iv, Flags: event.FlagInduction})
		}
		suite = append(suite, equivStream{"reduction-dups", m, evs})
	}

	{
		// Variable lifetime: write, free, re-write the same addresses; the
		// second write must be INIT, and the cache must not resurrect the
		// removed history.
		var evs []event.Access
		for i := 0; i < 50; i++ {
			a := 0x3000 + uint64(i%8)*8
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 30)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(3, 31)},
				event.Access{Addr: a, Kind: event.Remove},
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 32)})
		}
		suite = append(suite, equivStream{"lifetime", prog.NewMeta(), evs})
	}

	{
		// Two-level nest: the inner loop carries one dependence, the outer
		// another, exercising the multi-lane iteration-vector compare.
		m := prog.NewMeta()
		lo := m.AddLoop(prog.Loop{Name: "outer"})
		li := m.AddLoop(prog.Loop{Name: "inner"})
		octx := m.PushCtx(0, lo)
		ictx := m.PushCtx(octx, li)
		var evs []event.Access
		for o := uint32(0); o < 12; o++ {
			for i := uint32(0); i < 12; i++ {
				iv := event.PackIterVec([]uint32{o, i})
				inner := 0x4000 + uint64(i%4)*8
				outer := 0x5000 + uint64(o%4)*8
				evs = append(evs,
					event.Access{Addr: inner, Kind: event.Write, Loc: loc.Pack(4, 40), CtxID: ictx, IterVec: iv},
					event.Access{Addr: inner, Kind: event.Read, Loc: loc.Pack(4, 41), CtxID: ictx, IterVec: iv},
					event.Access{Addr: outer, Kind: event.Write, Loc: loc.Pack(4, 42), CtxID: ictx, IterVec: iv})
			}
		}
		suite = append(suite, equivStream{"nested", m, evs})
	}

	{
		// Cross-thread accesses with timestamp reversals (MT race check).
		var evs []event.Access
		ts := uint64(1)
		for i := 0; i < 80; i++ {
			a := 0x6000 + uint64(i%16)*8
			w := event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(5, 50), Thread: int32(i % 3), TS: ts + 2}
			r := event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(5, 51), Thread: int32((i + 1) % 3), TS: ts}
			ts += 3
			evs = append(evs, w, r) // read's TS precedes the write's: reversed
		}
		suite = append(suite, equivStream{"threads-ts", prog.NewMeta(), evs})
	}

	return suite
}

// put feeds accesses to p as one batch.
func put(p interface {
	AccessBatch([]event.Access, []event.Range)
}, evs ...event.Access) {
	p.AccessBatch(evs, nil)
}

// feed pushes a stream through a profiler one slot per batch — the reference
// every other batching is held to — and flushes.
func feed(p Profiler, evs []event.Access) *Result {
	for i := range evs {
		p.AccessBatch(evs[i:i+1], nil)
	}
	return p.Flush()
}

// requireSameProfile asserts two results are byte-identical in everything
// user-visible: the dependence set with all Stats fields, and LoopDeps.
func requireSameProfile(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Deps.Unique() != got.Deps.Unique() {
		t.Fatalf("%s: unique deps %d vs %d", label, want.Deps.Unique(), got.Deps.Unique())
	}
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		gst, ok := got.Deps.Lookup(k)
		if !ok {
			t.Errorf("%s: missing dep %+v", label, k)
			return false
		}
		if gst != st {
			t.Errorf("%s: stats mismatch for %+v:\n want %+v\n got  %+v", label, k, st, gst)
			return false
		}
		return true
	})
	if len(want.Loops) != len(got.Loops) {
		t.Fatalf("%s: LoopDeps loops %d vs %d", label, len(want.Loops), len(got.Loops))
	}
	for id, wld := range want.Loops {
		gld := got.Loops[id]
		if gld == nil {
			t.Fatalf("%s: loop %d missing from LoopDeps", label, id)
		}
		if *wld != *gld {
			t.Fatalf("%s: LoopDeps mismatch for loop %d:\n want %+v\n got  %+v", label, id, *wld, *gld)
		}
	}
	if want.Stats.Accesses != got.Stats.Accesses {
		t.Errorf("%s: accesses %d vs %d", label, want.Stats.Accesses, got.Stats.Accesses)
	}
}

// referenceProfile runs evs through one cache-disabled engine over an exact
// store: Algorithm 1 with no instance cache, no duplicate-read filter, no
// transport and no merge — the reference every pipeline's hot path is held
// to.
func referenceProfile(evs []event.Access, meta *prog.Meta, raceCheck bool) *Result {
	eng := NewEngine(sig.NewPerfectSignature(), meta, raceCheck)
	eng.DisableCache()
	res := &Result{}
	for _, a := range evs {
		if a.Kind == event.Read || a.Kind == event.Write {
			res.Stats.Accesses += 1 + uint64(a.Rep)
		}
		eng.Process(a)
	}
	res.Deps, res.Loops = eng.Deps(), eng.LoopDeps()
	return res
}

// TestFastSlowEquivalence holds the hot path to the ISSUE's bar: dependence
// sets and LoopDeps of every pipeline — instance cache, duplicate-read
// filters, transport and merge all on — must be byte-identical to the
// cache-disabled reference engine's.
func TestFastSlowEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := Config{Backend: "perfect", Meta: s.meta}
			for _, kind := range []string{"serial", "parallel", "mt"} {
				var p Profiler
				switch kind {
				case "serial":
					p = NewSerial(cfg)
				case "parallel":
					c := cfg
					c.Workers = 3 // non-power-of-two: exercises the modulo owner path
					c.QueueCap = 4
					p = NewParallel(c)
				case "mt":
					c := cfg
					c.Workers = 2
					c.QueueCap = 256
					p = NewMT(c)
				}
				fast := feed(p, s.evs)
				if fast.Stats.DepCacheProbes == 0 {
					t.Errorf("%s: fast path recorded no cache probes", kind)
				}
				// MT engines always check for races (timestamps are collected).
				ref := referenceProfile(s.evs, s.meta, kind == "mt")
				requireSameProfile(t, fmt.Sprintf("%s/%s", s.name, kind), ref, fast)
			}
		})
	}
}

// TestSerialParallelLoopDepsEquivalence pins the mergeLoopAggs semantics: a
// carried dependence whose instances land on several workers (same source
// lines, different addresses) must count once in LoopDeps, exactly as in a
// serial run — the double-count the per-worker count merge used to produce.
func TestSerialParallelLoopDepsEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			serial := feed(NewSerial(Config{
				Backend: "perfect",
				Meta:    s.meta,
			}), s.evs)
			for _, workers := range []int{2, 3, 4} {
				par := feed(NewParallel(Config{
					Workers:  workers,
					QueueCap: 4,
					Backend:  "perfect",
					Meta:     s.meta,
				}), s.evs)
				requireSameProfile(t, fmt.Sprintf("%s/%dw", s.name, workers), serial, par)
			}
		})
	}
}

// TestLoopDepsNoDoubleCountAcrossWorkers is the sharpest form of the merge
// fix: one carried RAW spread over many addresses must report CarriedRAW == 1
// regardless of worker count.
func TestLoopDepsNoDoubleCountAcrossWorkers(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "spread"})
	ctx := m.PushCtx(0, l)
	var evs []event.Access
	for it := uint32(1); it < 100; it++ {
		iv := event.PackIterVec([]uint32{it})
		prev := 0x9000 + uint64(it-1)*8 // consecutive addresses: every worker owns some
		cur := 0x9000 + uint64(it)*8
		evs = append(evs,
			event.Access{Addr: prev, Kind: event.Read, Loc: loc.Pack(6, 60), CtxID: ctx, IterVec: iv},
			event.Access{Addr: cur, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: iv})
	}
	// The first iteration writes too, so the read always has a source.
	evs = append([]event.Access{{Addr: 0x9000, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: event.PackIterVec([]uint32{0})}}, evs...)

	for _, workers := range []int{1, 2, 4, 8} {
		res := feed(NewParallel(Config{
			Workers: workers,
			Backend: "perfect",
			Meta:    m,
		}), evs)
		ld := res.Loops[l]
		if ld == nil {
			t.Fatalf("workers=%d: no LoopDeps entry", workers)
		}
		if ld.CarriedRAW != 1 {
			t.Errorf("workers=%d: CarriedRAW = %d, want 1 (key-set union, not count sum)", workers, ld.CarriedRAW)
		}
		if ld.MinRAWDist != 1 {
			t.Errorf("workers=%d: MinRAWDist = %d, want 1", workers, ld.MinRAWDist)
		}
	}
}

// TestControlChunksNotCountedAsData pins the pushOpen metrics fix: flush and
// migration control pushes must land in ControlChunks, never in Chunks.
func TestControlChunksNotCountedAsData(t *testing.T) {
	p := NewParallel(Config{
		Workers: 2,
		Backend: "perfect",
	})
	put(p, event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1)})
	put(p, event.Access{Addr: 0x108, Kind: event.Write, Loc: loc.Pack(1, 2)})
	res := p.Flush()
	// Two open chunks flushed as data + two flush sentinels as control.
	if res.Stats.Chunks != 2 {
		t.Errorf("Chunks = %d, want 2 (one partial data chunk per worker)", res.Stats.Chunks)
	}
	if res.Stats.ControlChunks != 2 {
		t.Errorf("ControlChunks = %d, want 2 (one flush sentinel per worker)", res.Stats.ControlChunks)
	}
}
