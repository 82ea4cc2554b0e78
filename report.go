package ddprof

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"ddprof/internal/analysis"
	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/report"
)

// topHotDeps is the number of dependences the report's hot list shows.
const topHotDeps = 5

// WriteReport renders the analyses of one profiling run as '#'-prefixed
// comment lines, so the report can trail a dependence dump: the loop
// parallelism table of §VII-A, the section-level dependences of §VI-B, the
// hottest dependences and the dynamic call graph (§VIII's representations of
// one profile), and, for ModeMT profiles, the §VII-B communication heatmap
// over the given number of target threads with the race listing of §V-B.
func (r *Result) WriteReport(w io.Writer, threads int) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s: %d accesses, %d dependences (%d dynamic instances merged)\n",
		r.prog.Name, r.Accesses, r.Deps.Unique(), r.Deps.Instances())
	if r.Stats.Migrations > 0 {
		fmt.Fprintf(&b, "load balancing: %d migrations in %d redistribution rounds\n",
			r.Stats.Migrations, r.Stats.Redistributions)
	}

	b.WriteByte('\n')
	r.loopTable().Render(&b)

	b.WriteString("\nsection dependences:\n")
	if s := analysis.Sections(r.prog.Meta, r.Deps).String(); s != "" {
		b.WriteString(s)
	} else {
		b.WriteString("no cross-section dependences\n")
	}

	fmt.Fprintf(&b, "\nhot dependences (top %d):\n", topHotDeps)
	for _, d := range r.hotDeps(topHotDeps) {
		fmt.Fprintf(&b, "%v %v <- %v |%s| x%d\n",
			d.k.Type, d.k.Sink, d.k.Src, r.prog.Tab.VarName(d.k.Var), d.n)
	}

	b.WriteString("\ndynamic call graph:\n")
	r.writeCallGraph(&b)

	if r.threads {
		threads = max(threads, 1)
		m := r.Communication(threads)
		fmt.Fprintf(&b, "\ncommunication pattern (%d target threads):\n%s", threads, m.Heatmap())
		fmt.Fprintf(&b, "cross-thread RAW volume: %d instances\n", m.CrossThread())
		fmt.Fprintf(&b, "dependences flagged as potential races: %d\n", r.Races)
		for _, k := range r.races() {
			fmt.Fprintf(&b, "%v %v|%d <- %v|%d |%s| (order reversal observed)\n",
				k.Type, k.Sink, k.SinkThread, k.Src, k.SrcThread, r.prog.Tab.VarName(k.Var))
		}
	}

	bw := bufio.NewWriter(w)
	for _, line := range bytes.SplitAfter(b.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		bw.WriteByte('#')
		if line[0] != '\n' {
			bw.WriteByte(' ')
		}
		bw.Write(line)
	}
	return bw.Flush()
}

// loopTable lists every executed loop with its dependence verdict in
// begin-line order, noting how many OMP-annotated loops the profile
// identifies as parallelizable (Table II's measure).
func (r *Result) loopTable() *report.Table {
	loops := append([]analysis.LoopReport(nil), r.Loops...)
	sort.SliceStable(loops, func(i, j int) bool { return loops[i].Loop.Begin < loops[j].Loop.Begin })
	tab := &report.Table{
		Title:   "loop parallelism (from profiled dependences):",
		Headers: []string{"loop", "OMP", "iterations", "carried RAW", "carried WAR/WAW", "verdict"},
	}
	for _, l := range loops {
		tab.AddRow(l.Loop.Name, l.Loop.OMP, l.Iterations, l.CarriedRAW,
			fmt.Sprintf("%d/%d", l.CarriedWAR, l.CarriedWAW), verdict(l))
	}
	omp, identified := analysis.CountIdentified(r.Loops)
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("%d of %d OMP-annotated loops identified as parallelizable", identified, omp))
	return tab
}

// verdict names a loop's parallelization opportunity.
func verdict(l analysis.LoopReport) string {
	switch {
	case l.Parallelizable:
		return "PARALLELIZABLE"
	case l.Reduction:
		return "parallelizable with reduction"
	case l.DoacrossDistance >= 2:
		return fmt.Sprintf("DOACROSS(%d): overlap up to %d iterations", l.DoacrossDistance, l.DoacrossDistance)
	}
	return "sequential (carried RAW)"
}

type keyCount struct {
	k dep.Key
	n uint64
}

// hotDeps returns the top most frequent dependences, ties broken by the
// canonical key order.
func (r *Result) hotDeps(top int) []keyCount {
	var all []keyCount
	r.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		all = append(all, keyCount{k, st.Count})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return dep.LessKey(all[i].k, all[j].k)
	})
	return all[:min(top, len(all))]
}

// writeCallGraph renders the dynamic call tree collapsed to invocation
// counts per function and per caller→callee edge.
func (r *Result) writeCallGraph(b *bytes.Buffer) {
	fns := make([]string, 0, len(r.calls))
	for fn := range r.calls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if r.calls[fns[i]] != r.calls[fns[j]] {
			return r.calls[fns[i]] > r.calls[fns[j]]
		}
		return fns[i] < fns[j]
	})
	for _, fn := range fns {
		fmt.Fprintf(b, "%-20s x%d\n", fn, r.calls[fn])
	}
	edges := make([]interp.CallEdge, 0, len(r.callEdges))
	for e := range r.callEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Caller != edges[j].Caller {
			return edges[i].Caller < edges[j].Caller
		}
		return edges[i].Callee < edges[j].Callee
	})
	for _, e := range edges {
		fmt.Fprintf(b, "%s -> %s x%d\n", e.Caller, e.Callee, r.callEdges[e])
	}
	fmt.Fprintf(b, "max call depth: %d\n", r.maxCallDepth)
}

// races returns the dependences flagged as potential data races, in
// canonical key order.
func (r *Result) races() []dep.Key {
	var out []dep.Key
	r.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if st.Reversed {
			out = append(out, k)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return dep.LessKey(out[i], out[j]) })
	return out
}
