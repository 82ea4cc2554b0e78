package server

import (
	"context"
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/telemetry"
)

// hotProgram builds a target with a small heavy-hitter working set — the
// reduction scalar and the low array cells — hammered inside a long loop,
// plus a cold strided sweep over a large array.
func hotProgram(n int) *minilang.Program {
	p := minilang.New("hot")
	p.MainFunc(func(b *minilang.Block) {
		b.Decl("n", minilang.Ci(n))
		b.DeclArr("big", minilang.V("n"))
		b.Decl("acc", minilang.Ci(0))
		b.For("i", minilang.Ci(0), minilang.V("n"), minilang.Ci(1),
			minilang.LoopOpt{Name: "sweep"}, func(l *minilang.Block) {
				l.Set("big", minilang.V("i"), minilang.V("i"))
				l.Reduce("acc", minilang.OpAdd, minilang.Idx("big", minilang.V("i")))
			})
		b.Free("big")
	})
	return p
}

// varID resolves a variable name in the program's table.
func varID(t *testing.T, p *minilang.Program, name string) loc.VarID {
	t.Helper()
	for i := 0; i < p.Tab.NumVars(); i++ {
		if p.Tab.VarName(loc.VarID(i)) == name {
			return loc.VarID(i)
		}
	}
	t.Fatalf("variable %q not in table", name)
	return 0
}

// TestRemoteHybridSession is the end-to-end acceptance check for the
// backend layer: a remote session selecting the hybrid store over the DDT1
// handshake must pass daemon admission, produce a profile whose heavy-hitter
// (reduction-variable) dependences exactly match the exact backend's, and
// keep the session's total store bytes under the daemon budget.
func TestRemoteHybridSession(t *testing.T) {
	checkGoroutines(t)
	const budget = 4 << 20
	reg := telemetry.NewRegistry()
	srv := New(Config{
		WorkersPerSession: 2,
		MaxStoreBytes:     budget,
		Registry:          reg,
	})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	p := hotProgram(3000)

	// Exact reference, profiled in-process.
	ref := core.NewSerial(core.Config{Backend: "perfect", Meta: p.Meta})
	h := event.NewChunkHook(ref.AccessBatch)
	if _, err := interp.Run(p, h, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	h.Close()
	want := ref.Flush()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rr, err := ProfileRemote(conn, hotProgram(3000), ClientOptions{
		Workers: 2,
		Backend: "hybrid:slots=4096,exact=64,promote=4",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every dependence on the heavy-hitter reduction variable must be
	// recovered with its exact instance count.
	acc := varID(t, p, "acc")
	checked := 0
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if k.Var != acc {
			return true
		}
		checked++
		got, ok := rr.Deps.Lookup(k)
		if !ok {
			t.Errorf("heavy-hitter dependence %+v missing from hybrid profile", k)
			return true
		}
		if got.Count != st.Count {
			t.Errorf("heavy-hitter %+v: count %d, want %d", k, got.Count, st.Count)
		}
		return true
	})
	if checked == 0 {
		t.Fatal("reference profile has no reduction-variable dependences")
	}

	// The daemon's flush-time store gauge stays within the admitted budget.
	if got := reg.Gauge("pipeline_store_bytes").Load(); got <= 0 || got > budget {
		t.Errorf("pipeline_store_bytes = %d, want (0, %d]", got, budget)
	}
}

// TestBackendAdmission: the daemon refuses backends it cannot bound under
// MaxStoreBytes — unbounded stores outright, bounded ones that exceed the
// budget across the session's stores — and names the budget in the error.
func TestBackendAdmission(t *testing.T) {
	checkGoroutines(t)
	srv := New(Config{
		WorkersPerSession: 2,
		MaxStoreBytes:     1 << 20,
		Registry:          telemetry.NewRegistry(),
	})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct {
		backend string
		wantErr string
	}{
		{"perfect", "no memory bound"},
		{"signature:slots=16m", "store budget"},
		{"no-such-backend", "no-such-backend"},
	} {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ProfileRemote(conn, testProgram("refused", 50), ClientOptions{Backend: tc.backend})
		conn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("backend %q: err = %v, want mention of %q", tc.backend, err, tc.wantErr)
		}
	}

	// An explicitly sized signature fits under the same budget.
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ProfileRemote(conn, testProgram("fits", 50), ClientOptions{Backend: "signature:slots=4k"}); err != nil {
		t.Errorf("sized signature refused under budget: %v", err)
	}
}
