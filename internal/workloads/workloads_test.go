package workloads

import (
	"math"
	"testing"

	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/interp"
)

// TestAllSequentialRunAndCompute executes every sequential workload natively
// and checks it terminates with a finite, deterministic checksum and a
// plausible access count.
func TestAllSequentialRunAndCompute(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(Config{})
			info, err := interp.Run(p, nil, interp.Options{})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			cs, ok := info.Vars["checksum"]
			if !ok {
				t.Fatalf("%s: no checksum variable", w.Name)
			}
			if math.IsNaN(cs) || math.IsInf(cs, 0) {
				t.Fatalf("%s: checksum = %v", w.Name, cs)
			}
			if info.Accesses < 1000 {
				t.Errorf("%s: only %d accesses — workload too small to be meaningful", w.Name, info.Accesses)
			}
			// Deterministic: run again, same checksum.
			info2, err := interp.Run(w.Build(Config{}), nil, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if info2.Vars["checksum"] != cs {
				t.Errorf("%s: nondeterministic checksum: %v vs %v", w.Name, cs, info2.Vars["checksum"])
			}
		})
	}
}

// TestParallelVariantsRun executes every pthread-style variant with 4 target
// threads.
func TestParallelVariantsRun(t *testing.T) {
	for _, w := range Starbench() {
		w := w
		if w.BuildParallel == nil {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			p := w.BuildParallel(Config{Threads: 4})
			info, err := interp.Run(p, nil, interp.Options{})
			if err != nil {
				t.Fatalf("%s parallel: %v", w.Name, err)
			}
			cs := info.Vars["checksum"]
			if math.IsNaN(cs) || math.IsInf(cs, 0) {
				t.Fatalf("%s parallel: checksum = %v", w.Name, cs)
			}
		})
	}
}

// TestParallelMatchesSequentialChecksum: for data-race-free workloads whose
// parallel decomposition is a pure partition of the sequential one, the
// parallel checksum must equal the sequential checksum.
func TestParallelMatchesSequentialChecksum(t *testing.T) {
	// These kernels compute identical checksums in both variants (the
	// reductions are either exact partitions or locked).
	for _, name := range []string{"rgbyuv", "rotate", "rot-cc", "tinyjpeg"} {
		w, ok := ByName(name)
		if !ok || w.BuildParallel == nil {
			t.Fatalf("workload %s missing", name)
		}
		seq, err := interp.Run(w.Build(Config{}), nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := interp.Run(w.BuildParallel(Config{Threads: 4}), nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(seq.Vars["checksum"]-par.Vars["checksum"]) > 1e-6*math.Abs(seq.Vars["checksum"])+1e-9 {
			t.Errorf("%s: sequential %v vs parallel %v", name, seq.Vars["checksum"], par.Vars["checksum"])
		}
	}
}

func TestScaleGrowsWork(t *testing.T) {
	small, err := interp.Run(RGBYUV(Config{Scale: 0.5}), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := interp.Run(RGBYUV(Config{Scale: 2}), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Accesses <= small.Accesses {
		t.Errorf("scale 2 (%d accesses) not larger than scale 0.5 (%d)", big.Accesses, small.Accesses)
	}
}

func TestRegistry(t *testing.T) {
	if len(NAS()) != 8 {
		t.Errorf("NAS count = %d", len(NAS()))
	}
	if len(Starbench()) != 11 {
		t.Errorf("Starbench count = %d", len(Starbench()))
	}
	if len(All()) != 19 {
		t.Errorf("All count = %d", len(All()))
	}
	if _, ok := ByName("CG"); !ok {
		t.Error("ByName(CG) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	for _, w := range Starbench() {
		if w.BuildParallel == nil {
			t.Errorf("%s: missing parallel variant", w.Name)
		}
	}
}

// TestNASLoopInventories verifies each NAS program declares exactly the
// Table II "# OMP" number of OMP-annotated loops.
func TestNASLoopInventories(t *testing.T) {
	for _, w := range NAS() {
		p := w.Build(Config{})
		omp := 0
		for _, l := range p.Meta.Loops() {
			if l.OMP {
				omp++
			}
		}
		if omp != w.OMPLoops {
			t.Errorf("%s: %d OMP loops declared, Table II says %d", w.Name, omp, w.OMPLoops)
		}
	}
}

// TestTableIAddressAccessShape sanity-checks the Table I drivers: tinyjpeg
// must have a tiny address set with heavy reuse, rgbyuv a large address set
// with light reuse.
func TestTableIAddressAccessShape(t *testing.T) {
	tj, err := interp.Run(TinyJPEG(Config{}), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := interp.Run(RGBYUV(Config{}), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// tinyjpeg: few hundred addresses, millions of touches; its access
	// count should dwarf rgbyuv's per-address reuse.
	if tj.Accesses < 100000 {
		t.Errorf("tinyjpeg accesses = %d, want heavy reuse", tj.Accesses)
	}
	if rg.Accesses == 0 {
		t.Fatal("rgbyuv did nothing")
	}
}

func TestWaterSpatialRuns(t *testing.T) {
	info, err := interp.Run(WaterSpatial(Config{Threads: 4}), nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(info.Vars["checksum"]) {
		t.Error("water-spatial checksum NaN")
	}
	if info.Accesses < 10000 {
		t.Errorf("water-spatial accesses = %d", info.Accesses)
	}
}

// TestNASNamedLoopVerdicts pins the Table II ground truth at loop-name
// granularity for the three benchmarks with non-identified loops.
func TestNASNamedLoopVerdicts(t *testing.T) {
	notIdentified := map[string][]string{
		"IS": {"is.histogram", "is.scan", "is.rank"},
		"CG": {"cg.rho0", "cg.d", "cg.rho", "cg.znorm", "cg.zeta", "cg.final_rnorm", "cg.final_xnorm"},
		"FT": {"ft.checksum"},
	}
	for name, seq := range notIdentified {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		p := w.Build(Config{Scale: 0.5})
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
		reports := analysis.DiscoverParallelism(p.Meta, prof.Flush(), info.LoopIters)
		verdicts := map[string]analysis.LoopReport{}
		for _, r := range reports {
			verdicts[r.Loop.Name] = r
		}
		bad := map[string]bool{}
		for _, ln := range seq {
			bad[ln] = true
			r, ok := verdicts[ln]
			if !ok {
				t.Errorf("%s: loop %s never ran", name, ln)
				continue
			}
			if r.Parallelizable {
				t.Errorf("%s: loop %s must NOT be identified (carried RAW expected)", name, ln)
			}
		}
		// Every other OMP loop must be identified.
		for ln, r := range verdicts {
			if r.Loop.OMP && !bad[ln] && !r.Parallelizable {
				t.Errorf("%s: OMP loop %s unexpectedly sequential (%d carried RAW)", name, ln, r.CarriedRAW)
			}
		}
	}
}
