package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"ddprof"
	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/sig"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
)

// The ledger climbs ROADMAP item 2's ablation ladder for the workload's
// seeded target, one span per rung around the public calls of the layer the
// rung adds. Each rung's time is compared with the rung below it.
var rungs = []string{
	"rung1.native",   // bare VM: compile + run, no hook
	"rung2.noop",     // VM + a no-op hook
	"rung3.capture",  // VM + a hook capturing the event stream
	"rung4.serial",   // serial AccessBatch replay over the exact store
	"rung5.store",    // the same replay over the workload's own store
	"rung6.parallel", // 2-worker parallel replay, Flush included
	"rung7.trace",    // DDT1 encode + batched decode of the stream
	"rung8.remote",   // a remote session against the in-process daemon
}

// storeSlots is the signature budget of the workload's own store: what
// ddprof.Profile gives a local profile, or what the daemon gives a session.
func (w workload) storeSlots() int {
	if w.remote {
		return 1 << 20 // server.Config.SessionSlots default
	}
	return 1 << 21 // ddprof.Config.Slots default
}

// ledger is one traced run's state.
type ledger struct {
	opt  options
	w    workload
	p    *minilang.Program
	ref  *reference
	d    *daemon
	rep  *report
	opts interp.Options // instrumented runs: timestamps for MT targets
	// captured is the previous climb's stream length. The stream itself is
	// dropped after the trace rung, so the remote session and the
	// end-to-end profile run on a heap like the end-to-end run's.
	captured int

	samples map[string][]float64 // per-layer metric samples, one per climb
	rungDur map[string][]float64 // rung durations, one per climb
	climbs  [2][]float64         // untraced, traced climb durations

	gen       *generator
	rt        runtimeDelta
	t         opTimes // the end-to-end operation and the bare VM, per climb
	unretired int     // summed over climbs: each one is a race outcome
}

func (l *ledger) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// step times fn, inside a span under parent when tr is tracing.
func step(tr *tracer, name string, parent int, fn func(id int) error) (float64, error) {
	id := tr.begin(name, parent)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0).Seconds()
	tr.end(id)
	return d, err
}

// rung times one rung of the ladder, starting it from a settled heap like
// every timed operation of the end-to-end run.
func rung(tr *tracer, name string, parent int, fn func(id int) error) (float64, error) {
	settle()
	return step(tr, name, parent, fn)
}

// capture is a Hook recording the event stream; a mutex serializes the
// threads of multi-threaded targets.
type capture struct {
	mu sync.Mutex
	ev []event.Access
}

func (c *capture) Access(a event.Access) {
	c.mu.Lock()
	c.ev = append(c.ev, a)
	c.mu.Unlock()
}

// noop is the no-op hook of rung 2.
var noop = event.HookFunc(func(event.Access) {})

// newProfiler builds a profiler inside a core.New span: for the signature
// store this is where its slot arrays are allocated.
func newProfiler(tr *tracer, parent int, cfg core.Config) (prof core.Profiler, err error) {
	step(tr, "core.New", parent, func(int) error {
		prof, err = core.New(cfg)
		return err
	})
	return prof, err
}

// replay feeds the captured stream to prof in AccessBatch slices and
// flushes it, timing the flush separately.
func replay(tr *tracer, parent int, prof core.Profiler, ev []event.Access) (res *core.Result, flushS float64) {
	id := tr.begin("core.AccessBatch", parent)
	for i := 0; i < len(ev); i += batchSize {
		prof.AccessBatch(ev[i:min(i+batchSize, len(ev))], nil)
	}
	tr.end(id)
	flushS, _ = step(tr, "core.Flush", parent, func(int) error {
		res = prof.Flush()
		return nil
	})
	return res, flushS
}

func dataEvents(ev []event.Access) int {
	n := 0
	for i := range ev {
		if k := ev[i].Kind; k == event.Read || k == event.Write {
			n++
		}
	}
	return n
}

// climb runs the ladder once. tr is nil on the untraced climbs.
func (l *ledger) climb(tr *tracer) error {
	w, p := l.w, l.p
	root := tr.begin("climb", -1)
	defer tr.end(root)

	bs, err := step(tr, "minilang.build", root, func(int) error {
		var err error
		p, _, err = buildTarget(w, l.opt.scale, l.opt.seed)
		return err
	})
	if err != nil {
		return err
	}
	l.sample("minilang.build_s", bs)

	// Rung 1: the bare VM.
	var accesses uint64
	var compileS, cpu1 float64
	d1, err := rung(tr, rungs[0], root, func(id int) error {
		c0 := cpuTime()
		defer func() { cpu1 = cpuTime() - c0 }()
		var prg *vm.Program
		var err error
		compileS, err = step(tr, "vm.Compile", id, func(int) error {
			prg, err = vm.Compile(p)
			return err
		})
		if err != nil {
			return err
		}
		_, err = step(tr, "vm.Run", id, func(int) error {
			info, err := prg.Run(nil, interp.Options{})
			if err == nil {
				accesses = info.Accesses
			}
			return err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("rung 1: %w", err)
	}
	l.t.bare(d1, cpu1)
	l.rungDur[rungs[0]] = append(l.rungDur[rungs[0]], d1)
	l.sample("vm.compile_s", compileS)
	l.sample("vm.accesses", float64(accesses))
	l.rep.op(checkCount("bare VM", accesses, l.ref.accesses))

	// Rung 2: VM plus a no-op hook.
	d2, err := rung(tr, rungs[1], root, func(int) error {
		_, err := vm.Run(p, noop, l.opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("rung 2: %w", err)
	}
	l.rungDur[rungs[1]] = append(l.rungDur[rungs[1]], d2)
	l.sample("hook.noop_s", d2)
	l.sample("hook.self_s", d2-d1)

	// Rung 3: capture the stream into a buffer sized from the previous
	// climb, so after the first climb this prices the hook and one
	// allocation, not repeated buffer growth.
	c := &capture{}
	var info *interp.RunInfo
	d3, err := rung(tr, rungs[2], root, func(int) error {
		c.ev = make([]event.Access, 0, l.captured)
		var err error
		info, err = vm.Run(p, c, l.opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("rung 3: %w", err)
	}
	l.captured = len(c.ev)
	ev := c.ev
	events := float64(dataEvents(ev))
	l.rungDur[rungs[2]] = append(l.rungDur[rungs[2]], d3)

	// Rung 4: serial AccessBatch replay over the exact store, then the
	// layers that consume its result: analysis and the DDP1 encoder.
	var res *core.Result
	d4, err := rung(tr, rungs[3], root, func(id int) error {
		prof, err := newProfiler(tr, id, core.Config{Mode: core.ModeSerial, Backend: "perfect", Meta: p.Meta, RaceCheck: w.mt})
		if err != nil {
			return err
		}
		res, _ = replay(tr, id, prof, ev)
		return nil
	})
	if err != nil {
		return fmt.Errorf("rung 4: %w", err)
	}
	l.rungDur[rungs[3]] = append(l.rungDur[rungs[3]], d4)
	st := res.Stats
	l.sample("engine.replay_s", d4)
	l.sample("engine.ns_per_event", d4*1e9/events)
	l.sample("engine.cache_hit_ratio", ratio(st.DepCacheHits, st.DepCacheProbes))
	l.sample("engine.instances_per_access", ratio(res.Deps.Instances(), st.Accesses))
	l.rep.op(l.ref.verify(res.Deps, p, st.Accesses, w.mt))

	as, _ := step(tr, "analysis.DiscoverParallelism", root, func(int) error {
		analysis.DiscoverParallelism(p.Meta, res, info.LoopIters)
		return nil
	})
	l.sample("analysis.loops_s", as)
	var enc bytes.Buffer
	es, err := step(tr, "dep.Encode", root, func(int) error {
		return dep.Encode(&enc, res.Deps, p.Tab, info.LoopRecords)
	})
	if err != nil {
		return fmt.Errorf("dep.Encode: %w", err)
	}
	l.sample("dep.encode_s", es)
	l.sample("dep.encoded_bytes", float64(enc.Len()))
	l.sample("dep.unique", float64(res.Deps.Unique()))

	// Rung 5: the same replay over the workload's own store, and the bare
	// store probe sequence Algorithm 1 issues per access.
	d5, err := rung(tr, rungs[4], root, func(id int) error {
		prof, err := newProfiler(tr, id, core.Config{Mode: core.ModeSerial, Backend: w.backend, SlotsPerWorker: w.storeSlots(), Meta: p.Meta, RaceCheck: w.mt})
		if err != nil {
			return err
		}
		res, _ = replay(tr, id, prof, ev)
		return nil
	})
	if err != nil {
		return fmt.Errorf("rung 5: %w", err)
	}
	l.rungDur[rungs[4]] = append(l.rungDur[rungs[4]], d5)
	l.rep.op(l.ref.verify(res.Deps, p, res.Stats.Accesses, w.mt))
	if err := l.probeStore(tr, root, ev, events); err != nil {
		return err
	}

	// Rung 6: parallel replay through the 2-worker pipeline, Flush (the
	// merge) included.
	var flushS float64
	d6, err := rung(tr, rungs[5], root, func(id int) error {
		prof, err := newProfiler(tr, id, core.Config{
			Mode: core.ModeParallel, Workers: threads, Backend: w.backend,
			SlotsPerWorker: w.storeSlots() / threads, Meta: p.Meta, RaceCheck: w.mt,
			RedistributeEvery: 50000,
		})
		if err != nil {
			return err
		}
		res, flushS = replay(tr, id, prof, ev)
		return nil
	})
	if err != nil {
		return fmt.Errorf("rung 6: %w", err)
	}
	l.rungDur[rungs[5]] = append(l.rungDur[rungs[5]], d6)
	l.rep.op(l.ref.verify(res.Deps, p, res.Stats.Accesses, w.mt))
	st = res.Stats
	l.sample("pipeline.replay_s", d6)
	l.sample("merge.flush_s", flushS)
	l.sample("pipeline.events_per_chunk", ratio(st.Accesses, st.Chunks))
	l.sample("pipeline.range_frac", ratio(st.RangeElements, st.Accesses))
	l.sample("pipeline.dup_frac", ratio(st.DupCollapsed, st.Accesses))
	l.sample("pipeline.control_chunks", float64(st.ControlChunks))
	l.sample("pipeline.queue_bytes", float64(st.QueueBytes))
	l.sample("pipeline.worker_skew", skew(res.WorkerEvents))

	// Rung 7: DDT1 encode (the remote client's compacting writer) and
	// batched decode of the captured stream.
	if err := l.traceRung(tr, root, ev); err != nil {
		return err
	}
	ev, c = nil, nil

	// Rung 8: one remote session, with the query generator running.
	var sr sessionResult
	d8, err := rung(tr, rungs[7], root, func(id int) error {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.gen.run(stop)
		}()
		before := readRuntime()
		var err error
		sr, err = remoteSession(l.d, p, w, l.ref)
		if w.remote {
			l.rt.add(before, readRuntime(), sr.events)
		}
		close(stop)
		<-done
		if !sr.firstRead.IsZero() {
			tr.add("server.stream", id, sr.firstWrite, sr.lastWrite)
			tr.add("server.verdict_wait", id, sr.lastWrite, sr.firstRead)
		}
		return err
	})
	l.rep.op(err)
	l.rungDur[rungs[7]] = append(l.rungDur[rungs[7]], d8)
	l.sample("server.stream_s", sr.stream.Seconds())
	l.sample("server.verdict_wait_s", sr.wait.Seconds())
	l.unretired += sr.unretired
	l.sample("mt.races", float64(sr.races))
	l.sample("mt.cross_thread_deps", float64(sr.cross))

	// The workload's end-to-end operation, for the runtime ledger: the
	// remote session above for the daemon workload, ddprof.Profile here for
	// the local ones.
	if !w.remote {
		var before, after runtimeSample
		var cpu float64
		pr, err := rung(tr, "ddprof.Profile", root, func(int) error {
			before = readRuntime()
			c0 := cpuTime()
			res, err := ddprof.Profile(p, w.config())
			cpu = cpuTime() - c0
			after = readRuntime()
			if err == nil {
				err = l.ref.verify(res.Deps, p, res.Accesses, w.mt)
			}
			return err
		})
		l.rep.op(err)
		l.rt.add(before, after, accesses)
		l.t.profile(pr, cpu, 0, accesses)
	} else if err == nil {
		l.t.profile(d8, sr.cpu, 0, sr.events)
	}
	return nil
}

// probeStore replays Algorithm 1's store traffic directly: a read looks up
// the last write and records itself; a write looks up the last read and
// write and records itself.
func (l *ledger) probeStore(tr *tracer, parent int, ev []event.Access, events float64) error {
	st, err := sig.OpenStore(l.w.backend, l.w.storeSlots())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d, _ := step(tr, "sig.probe", parent, func(int) error {
		for i := range ev {
			a := &ev[i]
			s := sig.PackSlot(a.Loc, a.Var, a.Thread, a.CtxID, a.IterVec, a.TS)
			switch a.Kind {
			case event.Read:
				st.LookupWrite(a.Addr)
				st.SetRead(a.Addr, s)
			case event.Write:
				st.LookupRead(a.Addr)
				st.LookupWrite(a.Addr)
				st.SetWrite(a.Addr, s)
			case event.Remove:
				st.Remove(a.Addr)
			}
		}
		return nil
	})
	l.sample("store.probe_ns_per_event", d*1e9/events)
	l.sample("store.bytes", float64(st.Bytes()))
	l.sample("store.modeled_bytes", float64(st.ModeledBytes()))
	return nil
}

// traceRung encodes the captured stream as the remote client does and
// decodes it back in batches, checking the decoded event count.
func (l *ledger) traceRung(tr *tracer, parent int, ev []event.Access) error {
	var buf bytes.Buffer
	var encS, decS float64
	var encoded, decoded uint64
	d, err := rung(tr, rungs[6], parent, func(id int) error {
		var err error
		encS, err = step(tr, "trace.Encode", id, func(int) error {
			tw, err := trace.NewWriterSize(&buf, 1<<16)
			if err != nil {
				return err
			}
			cw := trace.NewCompactor(tw)
			for i := range ev {
				cw.Access(ev[i])
			}
			encoded = cw.Count()
			return cw.Close()
		})
		if err != nil {
			return err
		}
		decS, err = step(tr, "trace.NextBatch", id, func(int) error {
			r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			c := event.NewChunk()
			for {
				c.Reset()
				_, err := r.NextBatch(c)
				for _, a := range c.Events {
					if a.Kind == event.RangeRef {
						decoded += uint64(c.Ranges[a.Addr].Count)
					} else {
						decoded += 1 + uint64(a.Rep)
					}
				}
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
			}
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("rung 7: %w", err)
	}
	l.rungDur[rungs[6]] = append(l.rungDur[rungs[6]], d)
	l.rep.op(checkCount("trace round trip", decoded, encoded))
	n := float64(len(ev))
	l.sample("trace.encode_ns_per_event", encS*1e9/n)
	l.sample("trace.decode_ns_per_event", decS*1e9/n)
	l.sample("trace.bytes_per_event", float64(buf.Len())/n)
	return nil
}

func checkCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: %d events, want %d", what, got, want)
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// skew is max over mean of the per-worker event counts.
func skew(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, hi uint64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	return ratio(hi*uint64(len(xs)), sum)
}

// runtimeSample is a reading of the runtime/metrics the ledger reports.
type runtimeSample struct{ allocs, gcCycles, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// runtimeDelta accumulates runtime/metrics deltas over the profile
// operations of the ledger.
type runtimeDelta struct {
	sum    runtimeSample
	events uint64
	ops    int
}

func (r *runtimeDelta) add(before, after runtimeSample, events uint64) {
	if events == 0 {
		return
	}
	r.sum.allocs += after.allocs - before.allocs
	r.sum.gcCycles += after.gcCycles - before.gcCycles
	r.sum.gcCPU += after.gcCPU - before.gcCPU
	r.sum.totalCPU += after.totalCPU - before.totalCPU
	r.events += events
	r.ops++
}

// rungRow is one line of the per-rung table.
type rungRow struct {
	Rung      string  `json:"rung"`
	MedianS   float64 `json:"median_s"`
	DeltaS    float64 `json:"delta_s"`
	DeltaBase string  `json:"delta_base"`
	BaseS     float64 `json:"base_s"`
}

// spanRow is one line of the per-span self-time table.
type spanRow struct {
	Span    string  `json:"span"`
	Parent  string  `json:"parent"`
	MedianS float64 `json:"median_s"`
	SelfS   float64 `json:"self_s"`
	BaseS   float64 `json:"base_s"` // the parent's median duration
	Samples int     `json:"samples"`
}

// reset discards every sample taken so far. Operations and their checks
// stay counted.
func (l *ledger) reset() {
	l.samples = make(map[string][]float64)
	l.rungDur = make(map[string][]float64)
	l.rt, l.t, l.unretired = runtimeDelta{}, opTimes{}, 0
	l.gen.discard()
}

// runLedger is the traced run: after one discarded warm-up climb it climbs
// the ladder until the run's time is up (at least four climbs, unless the
// hard deadline comes first), alternating untraced and traced climbs so the
// tracing overhead is the difference of their medians.
func runLedger(opt options, rep *report) error {
	w := opt.workload
	l := &ledger{
		opt: opt, w: w, rep: rep,
		samples: make(map[string][]float64),
		rungDur: make(map[string][]float64),
	}
	if w.mt {
		l.opts = interp.Options{Timestamps: true}
	}
	ls, err := setupLocal(opt, rep, nil)
	if err != nil {
		return err
	}
	l.p, l.ref = ls.p, ls.ref
	baseline := runtime.NumGoroutine()
	l.d, err = startDaemon(filepath.Join(".bench_build", "run"), 0)
	if err != nil {
		return err
	}
	l.gen = newGenerator(l.d)

	// The warm-up climb is the cold one: it grows the capture buffer from
	// empty and fills pools, so it would bias the untraced median and rung 3.
	climbErr := l.climb(nil)
	l.reset()
	tr := newTracer()
	soft, hard := deadlines(opt.seconds)
	for i := 0; climbErr == nil; i++ {
		now := time.Now()
		if (!now.Before(soft) && i >= 4) || !now.Before(hard) {
			break
		}
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		if climbErr = l.climb(t); climbErr != nil {
			break
		}
		l.climbs[i%2] = append(l.climbs[i%2], time.Since(t0).Seconds())
	}
	derr := l.d.stop()
	if climbErr != nil {
		return climbErr
	}
	rep.check(derr)
	c := l.d.counters()
	rep.check(c.conserved())
	if w.mt {
		// As in runRemote, only multi-threaded sessions are counted.
		rep.check(c.accounted(l.ref.accesses))
	}
	rep.check(settleGoroutines(baseline))
	rep.set("server.sessions_started", float64(c.Started), "count")
	rep.set("server.sessions_completed", float64(c.Completed), "count")
	rep.set("server.sessions_evicted", float64(c.Evicted), "count")
	rep.set("server.refused", float64(c.Refused), "count")
	rep.set("server.unretired_at_verdict", float64(l.unretired), "count")

	for name, xs := range l.samples {
		unit := "s"
		for _, d := range perLayer {
			if d.name == name {
				unit = d.unit
			}
		}
		rep.set(name, median(xs), unit)
	}
	// The runtime ledger prices the profile operation itself.
	rt := l.rt
	rep.set("runtime.alloc_bytes_per_event", rt.sum.allocs/float64(max(rt.events, 1)), "B")
	rep.set("runtime.gc_cycles", rt.sum.gcCycles/float64(max(rt.ops, 1)), "count")
	rep.set("runtime.gc_cpu_frac", rt.sum.gcCPU/max(rt.sum.totalCPU, 1e-9), "fraction")
	l.gen.record(rep)
	l.t.record(rep)
	overhead := median(l.climbs[1]) - median(l.climbs[0])
	rep.set("ledger.tracing_overhead_s", overhead, "s")
	rep.info["ledger_climbs"] = len(l.climbs[0]) + len(l.climbs[1])
	rep.info["ledger_untraced_climb_s"] = median(l.climbs[0])
	return l.writeOutputs(tr, overhead)
}

// rungTable computes each rung's median and its difference from the rung
// below.
func (l *ledger) rungTable() []rungRow {
	var rows []rungRow
	for i, r := range rungs {
		row := rungRow{Rung: r, MedianS: median(l.rungDur[r])}
		if i > 0 {
			row.DeltaBase = rungs[i-1]
			row.BaseS = rows[i-1].MedianS
			row.DeltaS = row.MedianS - row.BaseS
		}
		rows = append(rows, row)
	}
	return rows
}

// spanTable aggregates the traced spans by name: median duration, median
// self time, and the parent's median duration as the base.
func spanTable(tr *tracer) []spanRow {
	self := selfTimes(tr.spans)
	type agg struct {
		parent    string
		dur, self []float64
	}
	by := map[string]*agg{}
	var order []string
	for i, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			if s.Parent >= 0 {
				a.parent = tr.spans[s.Parent].Name
			}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.dur = append(a.dur, s.End-s.Start)
		a.self = append(a.self, self[i])
	}
	var rows []spanRow
	for _, n := range order {
		a := by[n]
		row := spanRow{Span: n, Parent: a.parent, MedianS: median(a.dur), SelfS: median(a.self), Samples: len(a.dur)}
		if p := by[a.parent]; p != nil {
			row.BaseS = median(p.dur)
		}
		rows = append(rows, row)
	}
	return rows
}

// writeOutputs prints the rung and span tables and writes the Chrome
// trace-event span file and the ledger JSON under the output directory.
func (l *ledger) writeOutputs(tr *tracer, overhead float64) error {
	dir := filepath.Join(l.opt.out, fmt.Sprintf("%s-seed%d", l.w.name, l.opt.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rows := l.rungTable()
	spans := spanTable(tr)
	prof := median(l.t.wall)
	fmt.Printf("ledger %s seed %d scale %g: %d climbs, profile %.4fs (base of the shares)\n",
		l.w.name, l.opt.seed, l.opt.scale, len(l.climbs[0])+len(l.climbs[1]), prof)
	fmt.Printf("%-16s %10s %10s %-16s %8s\n", "rung", "median_s", "delta_s", "delta_base", "share")
	for _, r := range rows {
		fmt.Printf("%-16s %10.4f %10.4f %-16s %7.1f%%\n", r.Rung, r.MedianS, r.DeltaS, r.DeltaBase, 100*r.MedianS/prof)
	}
	fmt.Printf("%-30s %-16s %10s %10s %8s\n", "span", "parent", "median_s", "self_s", "of_base")
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Parent < spans[j].Parent })
	for _, s := range spans {
		share := 0.0
		if s.BaseS > 0 {
			share = 100 * s.MedianS / s.BaseS
		}
		fmt.Printf("%-30s %-16s %10.5f %10.5f %7.1f%%\n", s.Span, s.Parent, s.MedianS, s.SelfS, share)
	}
	untraced := median(l.climbs[0])
	fmt.Printf("tracing overhead: %.5fs per climb (traced %.4fs - untraced %.4fs)\n", overhead, untraced+overhead, untraced)
	// The shares the ROADMAP's pprof split is stated in: the hook seam
	// (emitHook) and the engine's record path, each over the end-to-end
	// profile time.
	hook := median(l.samples["hook.self_s"]) / prof
	engine := median(l.samples["engine.replay_s"]) / prof
	fmt.Printf("shares of the %.4fs profile: hook seam %.1f%%, serial engine replay %.1f%%\n", prof, 100*hook, 100*engine)

	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": l.w.name, "seed": l.opt.seed, "scale": l.opt.scale,
		"profile_s": prof, "rungs": rows, "spans": spans,
		"tracing_overhead_s": overhead, "untraced_climb_s": untraced,
		"hook_share": hook, "engine_share": engine,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ledger.json"), append(b, '\n'), 0o644)
}
