package exp

import (
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/sig"
	"ddprof/internal/workloads"
)

// TestHotPathByteIdenticalOnSuite is the correctness gate for the hot path:
// on every workload in the suite, the serial, parallel and MT pipelines
// (instance cache, duplicate-read filters, transport and merge) must produce
// dependence sets and LoopDeps byte-identical to one cache-disabled engine
// fed the raw captured stream.
func TestHotPathByteIdenticalOnSuite(t *testing.T) {
	opt := small().norm()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(opt.wcfg())
			cap, _, err := captureRun(p)
			if err != nil {
				t.Fatal(err)
			}
			// reference replays the stream through Algorithm 1 alone. MT
			// engines always check for races, so the MT reference does too.
			reference := func(raceCheck bool) *core.Engine {
				eng := core.NewEngine(sig.NewPerfectSignature(), p.Meta, raceCheck)
				eng.DisableCache()
				for _, a := range cap.Events() {
					eng.Process(a)
				}
				return eng
			}
			pipes := []struct {
				name      string
				prof      core.Profiler
				raceCheck bool
			}{
				{"serial", core.NewSerial(core.Config{Backend: "perfect", Meta: p.Meta}), false},
				{"parallel", core.NewParallel(core.Config{Workers: 4, Backend: "perfect", Meta: p.Meta}), false},
				{"mt", core.NewMT(core.Config{Workers: 4, Backend: "perfect", Meta: p.Meta}), true},
			}
			for _, pipe := range pipes {
				fast := replay(cap, pipe.prof)
				ref := reference(pipe.raceCheck)
				if fast.Deps.Unique() != ref.Deps().Unique() {
					t.Fatalf("%s: unique deps fast %d, reference %d", pipe.name, fast.Deps.Unique(), ref.Deps().Unique())
				}
				ref.Deps().Range(func(k dep.Key, st dep.Stats) bool {
					fst, ok := fast.Deps.Lookup(k)
					if !ok || fst != st {
						t.Fatalf("%s: dep %+v diverges: reference %+v fast %+v (found %v)", pipe.name, k, st, fst, ok)
					}
					return true
				})
				refLoops := ref.LoopDeps()
				if len(fast.Loops) != len(refLoops) {
					t.Fatalf("%s: LoopDeps size fast %d, reference %d", pipe.name, len(fast.Loops), len(refLoops))
				}
				for id, rld := range refLoops {
					fld := fast.Loops[id]
					if fld == nil || *fld != *rld {
						t.Fatalf("%s: LoopDeps for loop %d diverge: reference %+v fast %v", pipe.name, id, *rld, fld)
					}
				}
			}
		})
	}
}

// TestThroughputSmoke runs the throughput driver on two workloads and sanity
// checks the measurements the table is built from.
func TestThroughputSmoke(t *testing.T) {
	opt := small()
	opt.Only = []string{"rotate", "md5"}
	tab, rows, err := Throughput(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (serial, parallel, mt)", len(rows))
	}
	for _, r := range rows {
		if r.Events == 0 || r.EPS <= 0 {
			t.Errorf("%s: empty measurement: %+v", r.Pipeline, r)
		}
		if r.CacheHit <= 0 || r.CacheHit > 100 {
			t.Errorf("%s: cache hit rate %.1f%% out of range", r.Pipeline, r.CacheHit)
		}
	}
	var b strings.Builder
	tab.Render(&b)
	if !strings.Contains(b.String(), "serial") {
		t.Error("rendered table missing serial row")
	}
}
