package analysis

import (
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	. "ddprof/internal/minilang"
)

// profileProgram runs p under a perfect-signature serial profiler.
func profileProgram(t *testing.T, p *Program) (*interp.RunInfo, *core.Result) {
	t.Helper()
	prof := core.NewSerial(core.Config{
		Backend: "perfect",
		Meta:    p.Meta,
	})
	h := event.NewChunkHook(prof.AccessBatch)
	info, err := interp.Run(p, h, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	return info, prof.Flush()
}

// TestDiscoverParallelismVerdicts builds a program with one loop of each
// kind and checks the classification.
func TestDiscoverParallelismVerdicts(t *testing.T) {
	p := New("verdicts")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(50))
		b.DeclArr("a", V("n"))
		b.DeclArr("bb", V("n"))
		b.Decl("sum", Ci(0))
		// Clean parallel loop (OMP).
		b.For("i", Ci(0), V("n"), Ci(1), LoopOpt{Name: "clean", OMP: true}, func(l *Block) {
			l.Set("a", V("i"), Mul(V("i"), Ci(2)))
		})
		// Reduction loop (OMP): carried RAW, all reduction instances.
		b.For("i", Ci(0), V("n"), Ci(1), LoopOpt{Name: "reduction", OMP: true}, func(l *Block) {
			l.Reduce("sum", OpAdd, Idx("a", V("i")))
		})
		// Genuinely sequential recurrence (OMP-annotated here to verify it
		// is NOT identified).
		b.For("i", Ci(1), V("n"), Ci(1), LoopOpt{Name: "recurrence", OMP: true}, func(l *Block) {
			l.Set("bb", V("i"), Add(Idx("bb", Sub(V("i"), Ci(1))), Idx("a", V("i"))))
		})
		// Never-executed loop: must not appear in reports.
		b.If(Lt(V("n"), Ci(0)), func(tb *Block) {
			tb.For("i", Ci(0), Ci(5), Ci(1), LoopOpt{Name: "dead", OMP: true}, func(l *Block) {
				l.Set("a", V("i"), Ci(0))
			})
		}, nil)
	})
	info, res := profileProgram(t, p)
	reports := DiscoverParallelism(p.Meta, res, info.LoopIters)

	byName := map[string]LoopReport{}
	for _, r := range reports {
		byName[r.Loop.Name] = r
	}
	if _, ok := byName["dead"]; ok {
		t.Error("never-executed loop reported")
	}
	if r := byName["clean"]; !r.Parallelizable || r.CarriedRAW != 0 {
		t.Errorf("clean loop misclassified: %+v", r)
	}
	if r := byName["reduction"]; r.Parallelizable || !r.Reduction {
		t.Errorf("reduction loop misclassified: %+v", r)
	}
	if r := byName["recurrence"]; r.Parallelizable || r.Reduction {
		t.Errorf("recurrence misclassified: %+v", r)
	}
	if r := byName["clean"]; r.Iterations != 50 {
		t.Errorf("clean loop iterations = %d", r.Iterations)
	}

	omp, ident := CountIdentified(reports)
	if omp != 3 || ident != 1 {
		t.Errorf("CountIdentified = (%d,%d), want (3,1)", omp, ident)
	}
	set := IdentifiedSet(reports)
	if !set["clean"] || set["reduction"] || len(set) != 1 {
		t.Errorf("IdentifiedSet = %v", set)
	}
}

func TestCommunicationMatrix(t *testing.T) {
	s := dep.NewSet()
	add := func(ty dep.Type, src, snk int16, count int) {
		k := dep.Key{Type: ty, Sink: loc.Pack(1, 2), SinkThread: snk, Src: loc.Pack(1, 1), SrcThread: src, Var: loc.VarID(int(src)*10 + int(snk))}
		for i := 0; i < count; i++ {
			s.Add(k, false, false, false)
		}
	}
	add(dep.RAW, 0, 1, 5)
	add(dep.RAW, 1, 2, 7)
	add(dep.RAW, 2, 2, 100) // diagonal
	add(dep.WAR, 0, 3, 50)  // not communication
	m := Communication(s, 4)
	if m.M[0][1] != 5 || m.M[1][2] != 7 || m.M[2][2] != 100 {
		t.Errorf("matrix wrong: %+v", m.M)
	}
	if m.M[0][3] != 0 {
		t.Error("WAR counted as communication")
	}
	if m.CrossThread() != 12 {
		t.Errorf("CrossThread = %d, want 12", m.CrossThread())
	}
	hm := m.Heatmap()
	if !strings.Contains(hm, "@") {
		t.Errorf("heatmap missing a saturated cell:\n%s", hm)
	}
	if len(strings.Split(strings.TrimSpace(hm), "\n")) != 6 {
		t.Errorf("heatmap should be header+4 rows+footer:\n%s", hm)
	}
}

func TestCommunicationEndToEnd(t *testing.T) {
	// A pipeline where thread t writes cell t and reads cell t-1: the
	// communication matrix must show the sub-diagonal band.
	p := New("pipe")
	p.MainFunc(func(b *Block) {
		b.Decl("T", Ci(4))
		b.DeclArr("cells", V("T"))
		b.For("round", Ci(0), Ci(50), Ci(1), LoopOpt{Name: "rounds"}, func(rb *Block) {
			rb.Spawn(4, func(s *Block) {
				s.Lock("m", func(cr *Block) {
					cr.Set("cells", Tid(), Add(Idx("cells", Mod(Add(Tid(), Ci(3)), Ci(4))), Ci(1)))
				})
				s.Barrier()
			})
		})
	})
	prof := core.NewMT(core.Config{Workers: 2, Backend: "perfect"})
	if _, err := interp.Run(p, prof, interp.Options{Timestamps: true}); err != nil {
		t.Fatal(err)
	}
	m := Communication(prof.Flush().Deps, 4)
	// Expect substantial t-1 -> t flow.
	for c := 0; c < 4; c++ {
		pth := (c + 3) % 4
		if m.M[pth][c] == 0 {
			t.Errorf("expected communication %d -> %d", pth, c)
		}
	}
}

func TestHeatmapEmpty(t *testing.T) {
	m := Communication(dep.NewSet(), 2)
	if m.CrossThread() != 0 {
		t.Error("empty set has communication")
	}
	if hm := m.Heatmap(); !strings.Contains(hm, "(producer)") {
		t.Error("heatmap footer missing")
	}
}

// TestDoacrossDistance: a lag-k recurrence admits k-way DOACROSS overlap,
// which the report exposes through the minimum carried distance.
func TestDoacrossDistance(t *testing.T) {
	p := New("doacross")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(60))
		b.DeclArr("a", V("n"))
		b.DeclArr("bb", V("n"))
		// a[i] = a[i-4]: distance-4 recurrence -> DOACROSS(4).
		b.For("i", Ci(4), V("n"), Ci(1), LoopOpt{Name: "lag4"}, func(l *Block) {
			l.Set("a", V("i"), Add(Idx("a", Sub(V("i"), Ci(4))), Ci(1)))
		})
		// bb[i] = bb[i-1]: distance-1 -> no headroom.
		b.For("i", Ci(1), V("n"), Ci(1), LoopOpt{Name: "lag1"}, func(l *Block) {
			l.Set("bb", V("i"), Add(Idx("bb", Sub(V("i"), Ci(1))), Ci(1)))
		})
	})
	info, res := profileProgram(t, p)
	reports := DiscoverParallelism(p.Meta, res, info.LoopIters)
	byName := map[string]LoopReport{}
	for _, r := range reports {
		byName[r.Loop.Name] = r
	}
	if r := byName["lag4"]; r.Parallelizable || r.DoacrossDistance != 4 {
		t.Errorf("lag4 = %+v, want DOACROSS distance 4", r)
	}
	if r := byName["lag1"]; r.DoacrossDistance != 1 {
		t.Errorf("lag1 = %+v, want distance 1", r)
	}
}

// TestSectionDeps: loop-to-loop dependence summary (§VI-B's "dependence
// between two code sections"). fill writes a, sum reads it: one
// cross-section ordering constraint; gen and use of b likewise; clear is
// independent of fill.
func TestSectionDeps(t *testing.T) {
	p := New("sections")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(40))
		b.DeclArr("a", V("n"))
		b.DeclArr("c", V("n"))
		b.Decl("sum", Ci(0))
		// Distinct induction variables: reusing one scalar i across loops
		// would itself be a (privatizable) cross-loop dependence.
		b.For("i1", Ci(0), V("n"), Ci(1), LoopOpt{Name: "fill"}, func(l *Block) {
			l.Set("a", V("i1"), Mul(V("i1"), Ci(2)))
		})
		b.For("i2", Ci(0), V("n"), Ci(1), LoopOpt{Name: "clear"}, func(l *Block) {
			l.Set("c", V("i2"), Ci(0))
		})
		b.For("i3", Ci(0), V("n"), Ci(1), LoopOpt{Name: "sum"}, func(l *Block) {
			l.Reduce("sum", OpAdd, Idx("a", V("i3")))
		})
	})
	_, res := profileProgram(t, p)
	sd := Sections(p.Meta, res.Deps)
	if len(sd.Sections) != 4 { // outside + 3 loops
		t.Fatalf("sections = %v", sd.Sections)
	}
	idx := map[string]int{}
	for i, n := range sd.Sections {
		idx[n] = i
	}
	if sd.M[idx["fill"]][idx["sum"]] == 0 {
		t.Errorf("fill -> sum dependence missing:\n%s", sd.String())
	}
	if sd.M[idx["fill"]][idx["clear"]] != 0 || sd.M[idx["clear"]][idx["fill"]] != 0 {
		t.Errorf("fill and clear should be independent:\n%s", sd.String())
	}
	if sd.CrossSection() == 0 {
		t.Error("no cross-section dependences at all")
	}
	// The loop-variable self deps keep every loop section self-dependent;
	// the outside section wrote n and the arrays' declarations read it.
	if !strings.Contains(sd.String(), "->") {
		t.Error("String produced no edges")
	}
}
