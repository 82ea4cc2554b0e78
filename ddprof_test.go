package ddprof_test

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"ddprof"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/trace"
)

// buildDemo constructs a program with one clean loop, one reduction and one
// recurrence.
func buildDemo() *ddprof.Program {
	p := ddprof.NewProgram("demo")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("n", ddprof.Ci(200))
		b.DeclArr("a", ddprof.V("n"))
		b.Decl("sum", ddprof.Ci(0))
		b.For("i", ddprof.Ci(0), ddprof.V("n"), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "fill", OMP: true}, func(l *ddprof.Block) {
				l.Set("a", ddprof.V("i"), ddprof.Mul(ddprof.V("i"), ddprof.Ci(3)))
			})
		b.For("i", ddprof.Ci(0), ddprof.V("n"), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "sum", OMP: true}, func(l *ddprof.Block) {
				l.Reduce("sum", ddprof.OpAdd, ddprof.Idx("a", ddprof.V("i")))
			})
	})
	return p
}

func TestProfileModes(t *testing.T) {
	for _, mode := range []ddprof.Mode{
		ddprof.ModeSerial, ddprof.ModeParallel, ddprof.ModeParallelLockBased,
	} {
		res, err := ddprof.Profile(buildDemo(), ddprof.Config{Mode: mode, Workers: 4})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Deps.Unique() == 0 || res.Accesses == 0 {
			t.Fatalf("mode %d: empty result", mode)
		}
		par := res.ParallelizableLoops()
		if len(par) != 1 || par[0] != "fill" {
			t.Errorf("mode %d: parallelizable = %v, want [fill]", mode, par)
		}
	}
}

func TestProfileExactMatchesSignature(t *testing.T) {
	exact, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := ddprof.Profile(buildDemo(), ddprof.Config{Slots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Deps.Unique() != sig.Deps.Unique() {
		t.Errorf("exact %d deps vs signature %d", exact.Deps.Unique(), sig.Deps.Unique())
	}
}

func TestWriteDepsFormat(t *testing.T) {
	res, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteDeps(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"BGN loop", "END loop 200", "NOM", "{RAW", "{INIT *}", "|sum}"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNative(t *testing.T) {
	vars, err := ddprof.Run(buildDemo())
	if err != nil {
		t.Fatal(err)
	}
	if vars["sum"] != 3*199*200/2 {
		t.Errorf("sum = %v", vars["sum"])
	}
}

func TestMTModeRacesAndCommunication(t *testing.T) {
	p := ddprof.NewProgram("racy")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("shared", ddprof.Ci(0))
		b.Spawn(4, func(s *ddprof.Block) {
			s.For("i", ddprof.Ci(0), ddprof.Ci(300), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "unlocked"}, func(l *ddprof.Block) {
					// Unsynchronized read-modify-write: a data race.
					l.Assign("shared", ddprof.Add(ddprof.V("shared"), ddprof.Ci(1)))
				})
		})
	})
	res, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeMT, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Communication(4)
	if m.Threads != 4 {
		t.Fatal("bad matrix")
	}
	// Cross-thread RAW on the shared counter must appear.
	if m.CrossThread() == 0 {
		t.Error("no cross-thread communication on a shared counter")
	}
}

// TestRaceFlaggingLockedVsUnlocked is the §V-B end-to-end check: the same
// shared-counter update yields reversed-timestamp dependences only when the
// mutex is removed. SchedulerFuzz makes the interleavings appear even on a
// single-core machine.
func TestRaceFlaggingLockedVsUnlocked(t *testing.T) {
	build := func(locked bool) *ddprof.Program {
		p := ddprof.NewProgram("counter")
		p.MainFunc(func(b *ddprof.Block) {
			b.Decl("counter", ddprof.Ci(0))
			b.Spawn(4, func(s *ddprof.Block) {
				s.For("i", ddprof.Ci(0), ddprof.Ci(1500), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "inc"}, func(l *ddprof.Block) {
						inc := func(cr *ddprof.Block) {
							cr.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
						}
						if locked {
							l.Lock("m", inc)
						} else {
							inc(l)
						}
					})
			})
		})
		return p
	}
	cfg := ddprof.Config{Mode: ddprof.ModeMT, Workers: 4, SchedulerFuzz: 7}
	lockedRes, err := ddprof.Profile(build(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lockedRes.Races != 0 {
		t.Errorf("locked counter flagged %d races; mutual exclusion keeps access+push atomic", lockedRes.Races)
	}
	unlockedRes, err := ddprof.Profile(build(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if unlockedRes.Races == 0 {
		t.Error("unlocked counter flagged no races under scheduler fuzz")
	}
}

// TestProfileUnion covers the §I input-sensitivity story: a loop that is
// clean under one input but carried under another must be reported as not
// parallelizable in the union.
func TestProfileUnion(t *testing.T) {
	// The loop copies a[i] = a[i+shift]; with shift=0 it is independent,
	// with shift=1 it reads the next element (carried WAR? no: reads
	// a[i+1] written in a later iteration => WAR; use a[i-1] to get RAW).
	build := func(lag int) func() *ddprof.Program {
		return func() *ddprof.Program {
			p := ddprof.NewProgram("union")
			p.MainFunc(func(b *ddprof.Block) {
				b.Decl("n", ddprof.Ci(50))
				b.DeclArr("a", ddprof.V("n"))
				b.For("i", ddprof.Ci(1), ddprof.V("n"), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "copy", OMP: true}, func(l *ddprof.Block) {
						l.Set("a", ddprof.V("i"),
							ddprof.Add(ddprof.Idx("a", ddprof.Sub(ddprof.V("i"), ddprof.Ci(lag))), ddprof.Ci(1)))
					})
			})
			return p
		}
	}
	cfg := ddprof.Config{Backend: "perfect"}

	clean, err := ddprof.Profile(build(0)(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.ParallelizableLoops()) != 1 {
		t.Fatalf("lag-0 input should be parallelizable: %+v", clean.Loops)
	}

	union, err := ddprof.ProfileUnion([]func() *ddprof.Program{build(0), build(1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.ParallelizableLoops()) != 0 {
		t.Errorf("union must be pessimistic: %v", union.ParallelizableLoops())
	}
	if union.Accesses <= clean.Accesses {
		t.Error("union should accumulate accesses across inputs")
	}

	if _, err := ddprof.ProfileUnion(nil, cfg); err == nil {
		t.Error("empty builds accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	if err := res.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	set, loops, err := ddprof.LoadProfile(strings.NewReader(bin.String()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != res.Deps.Unique() {
		t.Errorf("binary round trip lost deps: %d vs %d", set.Unique(), res.Deps.Unique())
	}
	if len(loops) != 2 {
		t.Errorf("loop records = %d, want 2", len(loops))
	}

	var txt strings.Builder
	if err := res.WriteDeps(&txt); err != nil {
		t.Fatal(err)
	}
	pset, ploops, err := ddprof.ParseProfile(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if pset.Unique() != res.Deps.Unique() {
		t.Errorf("text round trip lost deps: %d vs %d", pset.Unique(), res.Deps.Unique())
	}
	if len(ploops) != 2 {
		t.Errorf("text loop records = %d", len(ploops))
	}
}

func TestBadMode(t *testing.T) {
	if _, err := ddprof.Profile(buildDemo(), ddprof.Config{Mode: ddprof.Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestProfileRuntimeErrorJoinsWorkers: a target that fails at run time
// returns its error, and the pipeline's worker goroutines still exit.
func TestProfileRuntimeErrorJoinsWorkers(t *testing.T) {
	p := ddprof.NewProgram("oob")
	p.MainFunc(func(b *ddprof.Block) {
		b.DeclArr("a", ddprof.Ci(4))
		b.For("i", ddprof.Ci(0), ddprof.Ci(8), ddprof.Ci(1), ddprof.LoopOpt{Name: "over"}, func(l *ddprof.Block) {
			l.Set("a", ddprof.V("i"), ddprof.V("i"))
		})
	})
	base := runtime.NumGoroutine()
	if _, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeParallel, Workers: 4}); err == nil {
		t.Fatal("out-of-bounds store profiled without error")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed run, %d after", base, runtime.NumGoroutine())
		}
	}
}

func TestRecordAndProfileTrace(t *testing.T) {
	var buf strings.Builder
	n, err := ddprof.RecordTrace(buildDemo(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events recorded")
	}
	live, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ddprof.ProfileTrace(strings.NewReader(buf.String()), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != live.Deps.Unique() {
		t.Errorf("trace profile %d deps vs live %d", set.Unique(), live.Deps.Unique())
	}
	if set.Instances() != live.Deps.Instances() {
		t.Errorf("trace instances %d vs live %d", set.Instances(), live.Deps.Instances())
	}

	// Timestamps cost a sequential trace nothing: re-encoding the same
	// events with every TS zeroed is no smaller.
	evs := readTrace(t, strings.NewReader(buf.String()))
	var zeroed bytes.Buffer
	w, err := trace.NewWriter(&zeroed)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range evs {
		a.TS = 0
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > zeroed.Len() {
		t.Errorf("timestamped trace is %d bytes, %d without timestamps", buf.Len(), zeroed.Len())
	}
}

// readTrace decodes a whole trace of point records.
func readTrace(t *testing.T, r io.Reader) []event.Access {
	t.Helper()
	tr, err := trace.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var evs []event.Access
	for {
		rec, err := tr.NextRecord()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.IsRange {
			t.Fatal("recorded trace holds a range record")
		}
		evs = append(evs, rec.Access)
	}
}

// TestRecordTraceTimestamps: a recorded trace carries the global timestamp of
// every access, so a multi-threaded target's trace keeps what race flagging
// needs.
func TestRecordTraceTimestamps(t *testing.T) {
	p := ddprof.NewProgram("counter")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("counter", ddprof.Ci(0))
		b.Spawn(4, func(s *ddprof.Block) {
			s.For("i", ddprof.Ci(0), ddprof.Ci(200), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "inc"}, func(l *ddprof.Block) {
					l.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
				})
		})
	})
	var buf bytes.Buffer
	if _, err := ddprof.RecordTrace(p, &buf); err != nil {
		t.Fatal(err)
	}
	data := 0
	for i, a := range readTrace(t, &buf) {
		if a.Kind != event.Read && a.Kind != event.Write {
			continue
		}
		data++
		if a.TS == 0 {
			t.Fatalf("event %d (%v of %#x by thread %d) has no timestamp", i, a.Kind, a.Addr, a.Thread)
		}
	}
	if data == 0 {
		t.Fatal("no data events recorded")
	}
}

// TestProfileTraceFlagsReversal: ProfileTrace in ModeMT flags a dependence
// whose two accesses arrive with reversed timestamps, and only that one.
func TestProfileTraceFlagsReversal(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []event.Access{
		{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1), Thread: 0, TS: 1},
		{Addr: 0x100, Kind: event.Read, Loc: loc.Pack(1, 2), Thread: 1, TS: 2},
		{Addr: 0x200, Kind: event.Write, Loc: loc.Pack(1, 3), Thread: 0, TS: 4},
		{Addr: 0x200, Kind: event.Read, Loc: loc.Pack(1, 4), Thread: 1, TS: 3}, // reversed
	} {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := ddprof.ProfileTrace(bytes.NewReader(buf.Bytes()), ddprof.Config{Mode: ddprof.ModeMT, Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var races []loc.SourceLoc
	set.Range(func(k dep.Key, st dep.Stats) bool {
		if st.Reversed {
			races = append(races, k.Sink)
		}
		return true
	})
	if len(races) != 1 || races[0] != loc.Pack(1, 4) {
		t.Errorf("races flagged at sinks %v, want exactly the reversed read %v", races, loc.Pack(1, 4))
	}
}
