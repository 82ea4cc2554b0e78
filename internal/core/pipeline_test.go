package core

import (
	"strings"
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
)

// TestConfigValidation exercises the centralized Config checks: every
// constructor path funnels through normalize/makeStores, so a bad
// configuration fails with the same descriptive error everywhere.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"negative workers", Config{Mode: ModeParallel, Workers: -1}, "Workers"},
		{"negative queue cap", Config{Mode: ModeMT, QueueCap: -3}, "QueueCap"},
		{"negative slots", Config{Mode: ModeSerial, SlotsPerWorker: -5}, "SlotsPerWorker"},
		{"negative redistribute", Config{Mode: ModeParallel, RedistributeEvery: -1}, "RedistributeEvery"},
		{"bad backend spec", Config{Mode: ModeParallel, Workers: 1, Backend: "no-such-backend"}, "Config.Backend"},
		{"existence through New", Config{Mode: ModeExistence}, "NewExistence"},
		{"unknown mode", Config{Mode: Mode(42)}, "unknown Mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("New(%+v) = %T, want error", tc.cfg, p)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The typed constructors surface the same validation as panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewParallel with negative Workers did not panic")
			}
		}()
		NewParallel(Config{Workers: -1})
	}()
}

// TestNewDispatch drives each mode end-to-end through the unified
// constructor.
func TestNewDispatch(t *testing.T) {
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := New(Config{Mode: mode, Workers: 2, Backend: "perfect"})
			if err != nil {
				t.Fatal(err)
			}
			put(p, event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1), TS: 1})
			put(p, event.Access{Addr: 0x100, Kind: event.Read, Loc: loc.Pack(1, 2), TS: 2})
			res := p.Flush()
			if res.Stats.Accesses != 2 {
				t.Errorf("accesses = %d, want 2", res.Stats.Accesses)
			}
			if res.Deps.Unique() == 0 {
				t.Error("no dependences detected")
			}
		})
	}
}

// TestDoubleFlushPanicsEveryMode: the pipeline chassis centralizes the
// double-flush guard, so all four variants fail identically.
func TestDoubleFlushPanicsEveryMode(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: second Flush did not panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "Flush called twice") {
				t.Errorf("%s: panic %v does not mention double flush", name, r)
			}
		}()
		f()
	}
	s := NewSerial(Config{Backend: "perfect"})
	s.Flush()
	expectPanic("serial", func() { s.Flush() })
	p := NewParallel(Config{Workers: 2, Backend: "perfect"})
	p.Flush()
	expectPanic("parallel", func() { p.Flush() })
	m := NewMT(Config{Workers: 2, Backend: "perfect"})
	m.Flush()
	expectPanic("mt", func() { m.Flush() })
	e := NewExistence(Config{Workers: 2})
	e.Flush()
	expectPanic("existence", func() { e.Flush() })
}

// TestMTPublishesTelemetry closes the MT observability gap: before the
// pipeline unification, MT.Flush published neither signature occupancy nor
// per-worker queue depths. Both now flow through the shared merge stage.
func TestMTPublishesTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	m := NewMT(Config{Workers: 2, SlotsPerWorker: 1 << 10, Metrics: pipe})
	var ts uint64
	for i := 0; i < 4096; i++ {
		ts++
		m.Access(event.Access{Addr: uint64(0x1000 + 8*i), Kind: event.Write, Loc: loc.Pack(1, 1), TS: ts})
	}
	res := m.Flush()
	if got := pipe.Events.Load(); got != 4096 {
		t.Errorf("events_total = %d, want 4096", got)
	}
	if pipe.QueueDepthMax.Load() == 0 {
		t.Error("queue_depth_max gauge not published")
	}
	seen := false
	for i := 0; i < 2; i++ {
		if pipe.QueueDepth[i].Load() > 0 {
			seen = true
		}
	}
	if !seen {
		t.Error("no per-worker queue-depth gauge published")
	}
	if pipe.SigOccupancyPermille.Load() == 0 {
		t.Error("signature occupancy gauge not published")
	}
	if len(res.WorkerEvents) != 2 {
		t.Errorf("WorkerEvents = %v, want per-worker counts", res.WorkerEvents)
	}
}

// TestMTDupCollapse: the MT transports collapse consecutive identical reads
// on the consumer side (the producers are target threads and must stay
// filter-free). The profile is byte-identical — the engine replays the
// multiplicity.
func TestMTDupCollapse(t *testing.T) {
	const reads = 5000
	evs := make([]event.Access, 0, reads+1)
	evs = append(evs, event.Access{Addr: 0x800, Kind: event.Write, Loc: loc.Pack(1, 1)})
	for i := 0; i < reads; i++ {
		// Untimestamped identical reads, as a sequential replay would push.
		evs = append(evs, event.Access{Addr: 0x800, Kind: event.Read, Loc: loc.Pack(1, 2)})
	}
	want := runSerial(evs)

	m := NewMT(Config{Workers: 2, Backend: "perfect"})
	for _, a := range evs {
		m.Access(a)
	}
	got := m.Flush()
	depsEqual(t, want.Deps, got.Deps, "mt-collapsed")
	if got.Stats.Accesses != reads+1 {
		t.Errorf("accesses = %d, want %d (collapse must preserve logical counts)", got.Stats.Accesses, reads+1)
	}
	if got.Stats.DupCollapsed == 0 {
		t.Error("no duplicate reads collapsed on an all-duplicate stream")
	}

	// With distinct timestamps (real MT streams) nothing may collapse:
	// the equality covers TS, so distinct accesses stay distinct.
	m2 := NewMT(Config{Workers: 2, Backend: "perfect"})
	var ts uint64
	for _, a := range evs {
		ts++
		a.TS = ts
		m2.Access(a)
	}
	if got2 := m2.Flush(); got2.Stats.DupCollapsed != 0 {
		t.Errorf("collapsed %d timestamped accesses", got2.Stats.DupCollapsed)
	}
}

// TestMTRedistributionPreservesResults: MT gains the §IV-A heavy-hitter
// redistribution. A skewed single-producer stream must migrate at least one
// address (the rebalancer runs a final deterministic round at flush) and
// still reproduce the serial dependences exactly.
func TestMTRedistributionPreservesResults(t *testing.T) {
	evs := synthStream(300000, 200, 3)
	want := runSerial(evs)
	m := NewMT(Config{
		Workers:           4,
		Backend:           "perfect",
		RedistributeEvery: 8, // kick every 8×ChunkSize accesses
	})
	for _, a := range evs {
		m.Access(a)
	}
	got := m.Flush()
	depsEqual(t, want.Deps, got.Deps, "mt-redistributed")
	if got.Stats.Accesses != uint64(len(evs)) {
		t.Errorf("accesses = %d, want %d", got.Stats.Accesses, len(evs))
	}
	if got.Stats.Migrations == 0 {
		t.Error("skewed stream performed no migration")
	}
	if got.Stats.Redistributions == 0 {
		t.Error("no redistribution rounds recorded")
	}
}

// TestMTRedistributionConcurrentProducers hammers the hold-and-replay
// migration protocol while four producers keep pushing: per-thread private
// dependences must keep exact counts even as their hot addresses migrate
// mid-stream.
func TestMTRedistributionConcurrentProducers(t *testing.T) {
	const perThread = 20000
	m := NewMT(Config{
		Workers:           4,
		Backend:           "perfect",
		RedistributeEvery: 1, // rebalance as often as possible
	})
	var ts struct {
		sync.Mutex
		n uint64
	}
	stamp := func() uint64 {
		ts.Lock()
		defer ts.Unlock()
		ts.n++
		return ts.n
	}
	var wg sync.WaitGroup
	for thr := int32(0); thr < 4; thr++ {
		wg.Add(1)
		go func(thr int32) {
			defer wg.Done()
			// One hot address per thread (a heavy hitter the sketch will
			// see) plus a spread of cold ones. The ranges are disjoint
			// across threads so every dependence below is thread-private.
			hot := uint64(0x900000 + 8*int(thr))
			base := uint64(0x100000 * (int(thr) + 1))
			for i := 0; i < perThread; i++ {
				a := base + uint64(8*(i%64))
				if i%2 == 0 {
					a = hot
				}
				m.Access(event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, int(thr)+1), Thread: thr, TS: stamp()})
				m.Access(event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 10+int(thr)), Thread: thr, TS: stamp()})
			}
		}(thr)
	}
	wg.Wait()
	got := m.Flush()
	if got.Stats.Accesses != 4*2*perThread {
		t.Errorf("accesses = %d, want %d", got.Stats.Accesses, 4*2*perThread)
	}
	for thr := int32(0); thr < 4; thr++ {
		k := dep.Key{Type: dep.RAW, Sink: loc.Pack(1, 10+int(thr)), SinkThread: int16(thr), Src: loc.Pack(1, int(thr)+1), SrcThread: int16(thr)}
		st, ok := got.Deps.Lookup(k)
		if !ok {
			t.Fatalf("thread %d RAW missing", thr)
		}
		if st.Count != perThread {
			t.Errorf("thread %d RAW count = %d, want %d (lost or duplicated during migration)", thr, st.Count, perThread)
		}
		if st.Reversed {
			t.Errorf("thread %d private dep flagged as race", thr)
		}
	}
}

// TestExistenceRecyclesChunks: existence mode now rides the shared producer
// and gets chunk recycling; a long stream must not allocate one chunk per
// push.
func TestExistenceRecyclesChunks(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	// A shallow queue forces backpressure: the producer outruns the map-bound
	// workers, stalls on the full ring, and by the time it resumes the drained
	// chunks are waiting in the recycle rings.
	e := NewExistence(Config{Workers: 2, QueueCap: 4, Metrics: pipe})
	for i := 0; i < 64*event.ChunkSize; i++ {
		k := event.Read
		if i%3 == 0 {
			k = event.Write
		}
		put(e, event.Access{Addr: uint64(0x1000 + 8*(i%512)), Kind: k, Loc: loc.Pack(1, 1+i%10)})
	}
	res := e.Flush()
	if res.Stats.Chunks < 32 {
		t.Fatalf("chunks = %d, want a long chunk stream", res.Stats.Chunks)
	}
	if pipe.ChunksRecycled.Load() == 0 {
		t.Error("no chunks recycled in existence mode")
	}
}
