package ddprof_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ddprof"
	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// reportProgram builds:
//
//	line 1: x = 1
//	line 2: y = x + 1
//	line 3: z = y * 2
//	line 4: s = 0
//	line 5: loop "acc" (reduction on s), calling twice() every iteration
//	then:   loop "fill", independent writes
func reportProgram() *ddprof.Program {
	p := ddprof.NewProgram("fw")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("x", ddprof.Ci(1))
		b.Decl("y", ddprof.Add(ddprof.V("x"), ddprof.Ci(1)))
		b.Decl("z", ddprof.Mul(ddprof.V("y"), ddprof.Ci(2)))
		b.Decl("s", ddprof.Ci(0))
		b.For("i", ddprof.Ci(0), ddprof.Ci(10), ddprof.Ci(1), ddprof.LoopOpt{Name: "acc", OMP: true}, func(l *ddprof.Block) {
			l.Reduce("s", ddprof.OpAdd, ddprof.CallE("twice", ddprof.V("z")))
		})
		b.DeclArr("a", ddprof.Ci(10))
		b.For("i", ddprof.Ci(0), ddprof.Ci(10), ddprof.Ci(1), ddprof.LoopOpt{Name: "fill", OMP: true}, func(l *ddprof.Block) {
			l.Set("a", ddprof.V("i"), ddprof.V("i"))
		})
	})
	p.Func("twice", []string{"v"}, func(b *ddprof.Block) {
		b.Ret(ddprof.Mul(ddprof.V("v"), ddprof.Ci(2)))
	})
	return p
}

// report profiles p and returns its analysis report.
func report(t *testing.T, p *ddprof.Program, cfg ddprof.Config, threads int) string {
	t.Helper()
	res, err := ddprof.Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteReport(&b, threads); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// section returns the report lines after the heading line that starts with
// "# "+title, up to the next blank comment line, with the "# " prefix cut.
func section(t *testing.T, rep, title string) []string {
	t.Helper()
	var out []string
	in := false
	for _, line := range strings.Split(rep, "\n") {
		switch {
		case !in && strings.HasPrefix(line, "# "+title):
			in = true
		case in && line == "#":
			return out
		case in:
			out = append(out, strings.TrimPrefix(line, "# "))
		}
	}
	if !in {
		t.Fatalf("report has no %q section:\n%s", title, rep)
	}
	return out
}

func TestReportEveryLineIsAComment(t *testing.T) {
	rep := report(t, reportProgram(), ddprof.Config{Backend: "perfect"}, 1)
	for _, line := range strings.Split(strings.TrimSuffix(rep, "\n"), "\n") {
		if line != "#" && !strings.HasPrefix(line, "# ") {
			t.Errorf("report line %q is not a '#' comment", line)
		}
	}
	if strings.Contains(rep, "communication pattern") {
		t.Error("a sequential profile's report shows the MT communication section")
	}
}

func TestReportHotDepsOrdering(t *testing.T) {
	rep := report(t, reportProgram(), ddprof.Config{Backend: "perfect"}, 1)
	hot := section(t, rep, "hot dependences")
	if len(hot) != 5 {
		t.Fatalf("want 5 hot dependences, got %d:\n%s", len(hot), rep)
	}
	// The hottest dependence is a loop-control self dependence on i
	// (condition + increment read it every iteration).
	if !strings.Contains(hot[0], "|i|") {
		t.Errorf("hottest dependence should be the loop variable: %s", hot[0])
	}
	prev := ^uint64(0)
	for _, h := range hot {
		var n uint64
		if _, err := fmt.Sscanf(h[strings.LastIndex(h, " x")+2:], "%d", &n); err != nil {
			t.Fatalf("hot dependence %q has no count: %v", h, err)
		}
		if n > prev {
			t.Errorf("hot dependences not in descending count order:\n%s", strings.Join(hot, "\n"))
		}
		prev = n
	}
}

func TestReportCallGraph(t *testing.T) {
	rep := report(t, reportProgram(), ddprof.Config{Backend: "perfect"}, 1)
	cg := strings.Join(section(t, rep, "dynamic call graph"), "\n")
	for _, want := range []string{"twice                x10", "main                 x1", "main -> twice x10", "max call depth: 2"} {
		if !strings.Contains(cg, want) {
			t.Errorf("call graph missing %q:\n%s", want, cg)
		}
	}
	// Functions are listed hottest first.
	if strings.Index(cg, "twice ") > strings.Index(cg, "main ") {
		t.Errorf("call graph not ordered by invocation count:\n%s", cg)
	}
}

func TestReportLoopTable(t *testing.T) {
	rep := report(t, reportProgram(), ddprof.Config{Backend: "perfect"}, 1)
	rows := section(t, rep, "loop parallelism")
	// Header, rule, one row per loop in begin-line order, the note.
	if len(rows) != 5 {
		t.Fatalf("loop table has %d lines, want 5:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	acc, fill := strings.Fields(rows[2]), strings.Fields(rows[3])
	if acc[0] != "acc" || fill[0] != "fill" {
		t.Fatalf("loops not in begin-line order:\n%s", strings.Join(rows, "\n"))
	}
	if acc[2] != "10" || !strings.HasSuffix(strings.TrimSpace(rows[2]), "parallelizable with reduction") {
		t.Errorf("accumulator row wrong: %q", rows[2])
	}
	if !strings.HasSuffix(strings.TrimSpace(rows[3]), "PARALLELIZABLE") {
		t.Errorf("fill row wrong: %q", rows[3])
	}
	if rows[4] != "note: 1 of 2 OMP-annotated loops identified as parallelizable" {
		t.Errorf("identified note = %q", rows[4])
	}
	if sec := section(t, rep, "section dependences"); len(sec) == 0 || !strings.Contains(strings.Join(sec, "\n"), "acc") {
		t.Errorf("section dependences miss the accumulator loop: %q", sec)
	}
}

// TestReportMatchesDiscoverParallelism: the loop table of a serial CG run
// lists every executed OMP loop with the verdict analysis.DiscoverParallelism
// gives over an independently driven profile, and the identified count.
func TestReportMatchesDiscoverParallelism(t *testing.T) {
	w, _ := workloads.ByName("CG")
	rep := report(t, w.Build(workloads.Config{Scale: 0.3}), ddprof.Config{}, 1)

	p := w.Build(workloads.Config{Scale: 0.3})
	prof, err := core.New(core.Config{Mode: core.ModeSerial, SlotsPerWorker: 1 << 21, Meta: p.Meta})
	if err != nil {
		t.Fatal(err)
	}
	h := event.NewChunkHook(prof.AccessBatch)
	info, err := vm.New().Run(p, h, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	loops := analysis.DiscoverParallelism(p.Meta, prof.Flush(), info.LoopIters)

	rows := map[string]string{}
	for _, row := range section(t, rep, "loop parallelism") {
		if f := strings.Fields(row); len(f) > 0 {
			rows[f[0]] = strings.TrimSpace(row)
		}
	}
	omp := 0
	for _, l := range loops {
		if !l.Loop.OMP {
			continue
		}
		omp++
		want := "sequential (carried RAW)"
		switch {
		case l.Parallelizable:
			want = "PARALLELIZABLE"
		case l.Reduction:
			want = "parallelizable with reduction"
		case l.DoacrossDistance >= 2:
			want = fmt.Sprintf("DOACROSS(%d): overlap up to %d iterations", l.DoacrossDistance, l.DoacrossDistance)
		}
		row, ok := rows[l.Loop.Name]
		if !ok {
			t.Errorf("OMP loop %s missing from the report", l.Loop.Name)
		} else if !strings.HasSuffix(row, want) {
			t.Errorf("loop %s: report row %q, want verdict %q", l.Loop.Name, row, want)
		}
	}
	if omp == 0 {
		t.Fatal("CG executed no OMP loops")
	}
	o, identified := analysis.CountIdentified(loops)
	note := fmt.Sprintf("note: %d of %d OMP-annotated loops identified as parallelizable", identified, o)
	if !strings.Contains(rep, note) {
		t.Errorf("report lacks %q:\n%s", note, rep)
	}
}

// TestReportMTCommunication: an MT water-spatial report carries the §VII-B
// heatmap, the cross-thread volume and the race line.
func TestReportMTCommunication(t *testing.T) {
	p := workloads.WaterSpatial(workloads.Config{Scale: 0.3, Threads: 4})
	rep := report(t, p, ddprof.Config{Mode: ddprof.ModeMT, Workers: 2}, 4)
	heat := section(t, rep, "communication pattern (4 target threads)")
	if len(heat) < 6 || !strings.Contains(heat[0], "(consumer)") || heat[5] != "(producer)" {
		t.Errorf("heatmap malformed:\n%s", strings.Join(heat, "\n"))
	}
	var vol int
	for _, line := range strings.Split(rep, "\n") {
		fmt.Sscanf(line, "# cross-thread RAW volume: %d instances", &vol)
	}
	if vol == 0 {
		t.Errorf("no cross-thread RAW volume in the report:\n%s", rep)
	}
	if !strings.Contains(rep, "# dependences flagged as potential races: ") {
		t.Errorf("report lacks the race line:\n%s", rep)
	}
}
