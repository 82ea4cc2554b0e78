package exp

import (
	"fmt"

	"ddprof/internal/analysis"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// Table2Row is one NAS row of Table II.
type Table2Row struct {
	Program        string
	OMP            int // loops annotated in the OpenMP version
	IdentifiedDP   int // identified from perfect (DiscoPoP-grade) deps
	IdentifiedSig  int // identified from signature-profiled deps
	MissedSig      int // identified by DP but not by sig
	ExtraSig       int // identified by sig but not by DP (should be 0)
	ReductionLoops int // OMP loops recognized as reduction-parallelizable
}

// Table2 reproduces Table II: detection of parallelizable loops in the NAS
// benchmarks, from perfect dependences (the DiscoPoP column) and from
// signature-profiled dependences (the sig column), including the "# missed"
// cross-check that both identify exactly the same loops.
func Table2(opt Options) (*report.Table, []Table2Row, error) {
	opt = opt.norm()
	// Use a signature large enough for zero-FP/FN at this scale, like the
	// paper's "sufficiently large signatures".
	slots := opt.Slots[len(opt.Slots)-1]
	var rows []Table2Row
	for _, w := range workloads.NAS() {
		if !opt.want(w.Name) {
			continue
		}
		// Perfect (DP-grade) run.
		p1 := w.Build(opt.wcfg())
		dpProf := perfectSerial(p1)
		info, err := profileVM(p1, dpProf.AccessBatch)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		dpReports := analysis.DiscoverParallelism(p1.Meta, dpProf.Flush(), info.LoopIters)
		omp, identDP := analysis.CountIdentified(dpReports)

		// Signature run.
		p2 := w.Build(opt.wcfg())
		sigProf := sigSerial(p2, slots)
		info2, err := profileVM(p2, sigProf.AccessBatch)
		if err != nil {
			return nil, nil, fmt.Errorf("%s(sig): %w", w.Name, err)
		}
		sigReports := analysis.DiscoverParallelism(p2.Meta, sigProf.Flush(), info2.LoopIters)
		_, identSig := analysis.CountIdentified(sigReports)

		dpSet := analysis.IdentifiedSet(dpReports)
		sigSet := analysis.IdentifiedSet(sigReports)
		missed, extra := 0, 0
		for name := range dpSet {
			if !sigSet[name] {
				missed++
			}
		}
		for name := range sigSet {
			if !dpSet[name] {
				extra++
			}
		}
		reductions := 0
		for _, r := range dpReports {
			if r.Loop.OMP && r.Reduction {
				reductions++
			}
		}
		rows = append(rows, Table2Row{
			Program: w.Name, OMP: omp,
			IdentifiedDP: identDP, IdentifiedSig: identSig,
			MissedSig: missed, ExtraSig: extra,
			ReductionLoops: reductions,
		})
	}

	tab := &report.Table{
		Title:   "Table II: detection of parallelizable loops in NAS benchmarks",
		Headers: []string{"Program", "# OMP", "# identified (DP)", "# identified (sig)", "# missed (sig)", "reduction loops"},
	}
	var tOMP, tDP, tSig, tMiss int
	for _, r := range rows {
		tab.AddRow(r.Program, r.OMP, r.IdentifiedDP, r.IdentifiedSig, r.MissedSig, r.ReductionLoops)
		tOMP += r.OMP
		tDP += r.IdentifiedDP
		tSig += r.IdentifiedSig
		tMiss += r.MissedSig
	}
	tab.AddRow("Overall", tOMP, tDP, tSig, tMiss, "")
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("identified ratio: %.1f%% (paper: 92.5%% = 136/147)", 100*float64(tDP)/float64(tOMP)),
		"the non-identified loops are reduction/scan dependences, reported separately in the last column")
	return tab, rows, nil
}
