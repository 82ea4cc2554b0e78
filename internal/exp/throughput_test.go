package exp

import (
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/workloads"
)

// TestHotPathByteIdenticalOnSuite is the ISSUE's correctness gate for the
// hot-path overhaul: on every workload in the suite, the fast-path profiler
// (instance cache + duplicate filter) and the slow-path profiler
// (NoFastPath) must produce byte-identical dependence sets and LoopDeps,
// for the serial, parallel and MT pipelines alike.
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
			mks := map[string]func(noFast bool) core.Profiler{
				"serial": func(noFast bool) core.Profiler {
					return core.NewSerial(core.Config{
						Backend:    "perfect",
						Meta:       p.Meta,
						NoFastPath: noFast,
					})
				},
				"parallel": func(noFast bool) core.Profiler {
					return core.NewParallel(core.Config{
						Workers:    4,
						Backend:    "perfect",
						Meta:       p.Meta,
						NoFastPath: noFast,
					})
				},
				"mt": func(noFast bool) core.Profiler {
					return core.NewMT(core.Config{
						Workers:    4,
						Backend:    "perfect",
						Meta:       p.Meta,
						NoFastPath: noFast,
					})
				},
			}
			for name, mk := range mks {
				slow := replay(cap, mk(true))
				fast := replay(cap, mk(false))
				if fast.Deps.Unique() != slow.Deps.Unique() {
					t.Fatalf("%s: unique deps fast %d, slow %d", name, fast.Deps.Unique(), slow.Deps.Unique())
				}
				slow.Deps.Range(func(k dep.Key, st dep.Stats) bool {
					fst, ok := fast.Deps.Lookup(k)
					if !ok || fst != st {
						t.Fatalf("%s: dep %+v diverges: slow %+v fast %+v (found %v)", name, k, st, fst, ok)
					}
					return true
				})
				if len(fast.Loops) != len(slow.Loops) {
					t.Fatalf("%s: LoopDeps size fast %d, slow %d", name, len(fast.Loops), len(slow.Loops))
				}
				for id, sld := range slow.Loops {
					fld := fast.Loops[id]
					if fld == nil || *fld != *sld {
						t.Fatalf("%s: LoopDeps for loop %d diverge: slow %+v fast %v", name, id, *sld, fld)
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
		if r.Events == 0 || r.FastEPS <= 0 || r.SlowEPS <= 0 {
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
