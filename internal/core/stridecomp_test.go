package core

import (
	"fmt"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/workloads"
)

// TestStrideCompressionEquivalence is the A/B harness of the range-compressed
// ingestion work: every golden workload (plus the equivalence suite's
// special-case streams) through serial, parallel and MT, with and without
// Config.NoStrideCompression, diffing the full profiles — so a future
// mismatch prints the offending dependence key and stats, not just a digest.
func TestStrideCompressionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full workload corpus")
	}
	streams := equivSuite()
	for _, w := range workloads.All() {
		p := w.Build(workloads.Config{Scale: 0.25, Threads: 4})
		var c goldenCap
		if _, err := interp.Run(p, &c, interp.Options{}); err != nil {
			t.Fatalf("capture %s: %v", w.Name, err)
		}
		streams = append(streams, equivStream{"wl-" + w.Name, p.Meta, c.evs})
	}

	mk := func(kind string, meta *prog.Meta, noComp bool) Profiler {
		cfg := Config{
			Backend:             "perfect",
			Meta:                meta,
			NoStrideCompression: noComp,
		}
		switch kind {
		case "serial":
			return NewSerial(cfg)
		case "parallel":
			cfg.Workers = 4
			cfg.QueueCap = 8
			return NewParallel(cfg)
		case "mt":
			cfg.Workers = 2
			cfg.QueueCap = 256
			return NewMT(cfg)
		}
		panic(kind)
	}

	var rangesSeen uint64
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, kind := range []string{"serial", "parallel", "mt"} {
				off := feed(mk(kind, s.meta, true), s.evs)
				on := feed(mk(kind, s.meta, false), s.evs)
				if off.Stats.Ranges != 0 {
					t.Errorf("%s: NoStrideCompression run still emitted %d ranges", kind, off.Stats.Ranges)
				}
				rangesSeen += on.Stats.Ranges
				requireSameProfile(t, fmt.Sprintf("%s/%s", s.name, kind), off, on)
			}
		})
	}
	if rangesSeen == 0 {
		t.Error("no stream compressed a single range: the A/B comparison is vacuous")
	}
}

// TestProducerCompressionExactness drives the producer's merge machinery
// through its sharp edges — interleaved instructions, duplicate reads abutting
// runs, stride breaks and re-learning, descending and zero strides, Remove
// events cutting runs, same-address ping-pong between two instructions — and
// requires the parallel profile to match the serial reference exactly.
func TestProducerCompressionExactness(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "edge"})
	ctx := m.PushCtx(0, l)

	var evs []event.Access
	iv := func(it uint32) uint64 { return event.PackIterVec([]uint32{it}) }
	// Two interleaved strided instructions over the same iteration space, a
	// third reading the first's addresses one iteration behind (carried RAW
	// that must survive compression), plus periodic dups and breaks.
	for it := uint32(0); it < 3000; it++ {
		a := 0x10000 + uint64(it)*8
		b := 0x80000 + uint64(it)*16
		evs = append(evs,
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: b, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv(it)},
		)
		if it > 0 {
			evs = append(evs, event.Access{Addr: a - 8, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)})
		}
		if it%5 == 0 {
			// Re-read the current address: the duplicate filter's shape, then
			// a distinct-location read of the same address (not collapsible,
			// not extendable — lastTouch must block any backward move).
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 13), CtxID: ctx, IterVec: iv(it)},
			)
		}
		if it%97 == 0 {
			// Stride break: one far-away write from the same instruction.
			evs = append(evs, event.Access{Addr: 0x500000 + uint64(it)*8, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv(it)})
		}
		if it%131 == 0 {
			evs = append(evs, event.Access{Addr: a, Kind: event.Remove})
		}
	}
	// Descending and zero-stride runs.
	for it := uint32(0); it < 500; it++ {
		evs = append(evs,
			event.Access{Addr: 0x40000 - uint64(it)*8, Kind: event.Write, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: 0x60000, Kind: event.Read, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv(it)},
		)
	}
	// Same-address ping-pong between two instructions: every access touches
	// the last element of the other instruction's open run, so extension must
	// be continuously blocked by the last-touch table on one side.
	for it := uint32(0); it < 400; it++ {
		a := 0x90000 + uint64(it/2)*8
		evs = append(evs,
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 30), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 31), CtxID: ctx, IterVec: iv(it)},
		)
	}

	serial := feed(NewSerial(Config{Backend: "perfect", Meta: m}), evs)
	for _, workers := range []int{1, 2, 4, 8, 3} {
		cfg := Config{Workers: workers, QueueCap: 4, Backend: "perfect", Meta: m}
		par := feed(NewParallel(cfg), evs)
		requireSameProfile(t, fmt.Sprintf("%dw", workers), serial, par)
		if workers == 4 && par.Stats.Ranges == 0 {
			t.Error("4w: expected the strided stream to compress into ranges")
		}
		if par.Stats.RangeElements < par.Stats.Ranges*2 {
			t.Errorf("%dw: RangeElements %d < 2×Ranges %d", workers, par.Stats.RangeElements, par.Stats.Ranges)
		}
	}
}

// feedRange feeds one pre-compressed range as a one-slot batch — the
// per-record form of the trace-ingest path.
func feedRange(p Profiler, r event.Range) {
	p.AccessBatch([]event.Access{{Kind: event.RangeRef}}, []event.Range{r})
}

// TestAccessRangeEquivalence feeds pre-compressed ranges one at a time
// through the serial and parallel batch seam (the trace-ingest path) and
// requires the profile to match the same stream fed as points — covering the
// owner-mask splitting rule on power-of-two worker counts and the
// per-element fallback on the rest.
func TestAccessRangeEquivalence(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "ranges"})
	ctx := m.PushCtx(0, l)

	var ranges []event.Range
	mkr := func(base uint64, stride int64, count uint32, line int, kind event.Kind, itBase uint32) event.Range {
		return event.Range{
			Base: base, Stride: uint64(stride), Count: count,
			IterVec: event.PackIterVec([]uint32{itBase}), IterDelta: 1,
			Loc: loc.Pack(7, line), Var: loc.VarID(line), CtxID: ctx, Kind: kind,
		}
	}
	ranges = append(ranges,
		mkr(0x1000, 8, 1000, 70, event.Write, 0),      // unit stride, splits evenly
		mkr(0x1000, 8, 1000, 71, event.Read, 0),       // RAW against the writes
		mkr(0x9000, 16, 777, 72, event.Write, 5),      // stride 2 words: period W/2
		mkr(0x20000, 64, 333, 73, event.Write, 0),     // stride a multiple of W: one owner
		mkr(0x33000, -8, 500, 74, event.Write, 9),     // descending
		mkr(0x44440, 0, 200, 75, event.Write, 0),      // zero stride: repeated address
		mkr(0x51234, 12, 400, 76, event.Write, 0),     // unaligned stride: per-element fallback
		mkr(0x60000, 8, 1, 77, event.Write, 0),        // single element
		mkr(^uint64(0)-64, 8, 30, 78, event.Write, 0), // wraps 2^64: fallback
	)

	expand := func() []event.Access {
		var evs []event.Access
		for _, r := range ranges {
			for j := uint32(0); j < r.Count; j++ {
				evs = append(evs, r.At(j))
			}
		}
		return evs
	}

	want := feed(NewSerial(Config{Backend: "perfect", Meta: m}), expand())

	t.Run("serial", func(t *testing.T) {
		s := NewSerial(Config{Backend: "perfect", Meta: m})
		for _, r := range ranges {
			feedRange(s, r)
		}
		requireSameProfile(t, "serial ranges", want, s.Flush())
	})
	for _, workers := range []int{1, 2, 4, 8, 3} {
		workers := workers
		t.Run(fmt.Sprintf("parallel-%dw", workers), func(t *testing.T) {
			p := NewParallel(Config{Workers: workers, QueueCap: 8, Backend: "perfect", Meta: m})
			for _, r := range ranges {
				feedRange(p, r)
			}
			res := p.Flush()
			requireSameProfile(t, fmt.Sprintf("parallel %dw ranges", workers), want, res)
			if workers == 4 && res.Stats.RangeElements == 0 {
				t.Error("4w: expected split sub-ranges to reach workers as ranges")
			}
		})
	}
	t.Run("parallel-nocomp-expands", func(t *testing.T) {
		p := NewParallel(Config{Workers: 4, Backend: "perfect", Meta: m, NoStrideCompression: true})
		for _, r := range ranges {
			feedRange(p, r)
		}
		res := p.Flush()
		requireSameProfile(t, "parallel nocomp ranges", want, res)
		if res.Stats.Ranges != 0 {
			t.Errorf("NoStrideCompression ingest emitted %d ranges", res.Stats.Ranges)
		}
	})
}
