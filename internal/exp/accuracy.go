package exp

import (
	"fmt"

	"ddprof/internal/report"
	"ddprof/internal/sig"
	"ddprof/internal/stats"
	"ddprof/internal/workloads"
)

// Table1Row is one Starbench row of Table I.
type Table1Row struct {
	Program   string
	LOC       int
	Addresses int
	Accesses  uint64
	Deps      int
	// Rates[i] is the accuracy at Options.Slots[i].
	Rates []stats.Rates
}

// Table1 reproduces Table I: false positive and false negative rates of the
// profiled dependences for Starbench, against a perfect signature, at three
// signature sizes.
func Table1(opt Options) (*report.Table, []Table1Row, error) {
	opt = opt.norm()
	var rows []Table1Row
	for _, w := range workloads.Starbench() {
		if !opt.want(w.Name) {
			continue
		}
		p := w.Build(opt.wcfg())
		cap, info, err := captureRun(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		truth := replay(cap, perfectSerial(w.Build(opt.wcfg())))
		row := Table1Row{
			Program:   w.Name,
			LOC:       w.LOC,
			Addresses: cap.Addresses(),
			Accesses:  info.Accesses,
			Deps:      truth.Deps.Unique(),
		}
		for _, slots := range opt.Slots {
			got := replay(cap, sigSerial(w.Build(opt.wcfg()), slots))
			row.Rates = append(row.Rates, stats.Compare(truth.Deps, got.Deps))
		}
		rows = append(rows, row)
	}

	tab := &report.Table{
		Title:   "Table I: FPR/FNR of profiled dependences (Starbench)",
		Headers: []string{"Program", "LOC", "# addresses", "# accesses", "# dependences"},
	}
	for _, s := range opt.Slots {
		tab.Headers = append(tab.Headers,
			fmt.Sprintf("FPR@%s", report.SI(float64(s))),
			fmt.Sprintf("FNR@%s", report.SI(float64(s))))
	}
	var avg []float64 = make([]float64, 2*len(opt.Slots))
	for _, r := range rows {
		cells := []any{r.Program, r.LOC, report.SI(float64(r.Addresses)), report.SI(float64(r.Accesses)), r.Deps}
		for i, rt := range r.Rates {
			cells = append(cells, rt.FPR, rt.FNR)
			avg[2*i] += rt.FPR
			avg[2*i+1] += rt.FNR
		}
		tab.AddRow(cells...)
	}
	cells := []any{"average", "—", "—", "—", "—"}
	for _, v := range avg {
		cells = append(cells, v/float64(len(rows)))
	}
	tab.AddRow(cells...)
	tab.Notes = append(tab.Notes, fmt.Sprintf("scale=%.2g; slot counts scaled with address counts relative to the paper", opt.Scale))
	return tab, rows, nil
}

// Eq2Row is one point of the Equation (2) validation.
type Eq2Row struct {
	M, N      int
	Predicted float64
	Measured  float64
}

// Eq2 validates the paper's false-positive prediction formula
// Pfp = 1 − (1 − 1/m)^n against measured signature occupancy.
func Eq2(opt Options) (*report.Table, []Eq2Row, error) {
	opt = opt.norm()
	var rows []Eq2Row
	for _, m := range []int{1 << 14, 1 << 17} {
		for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
			g := sig.NewSignature(m)
			slot := sig.PackSlot(0, 0, 0, 0, 0, 0)
			for i := 0; i < n; i++ {
				// Uniformly random distinct addresses (splitmix64): the
				// formula models the uniform-hash case.
				a := uint64(i) + 0x9E3779B97F4A7C15
				a ^= a >> 30
				a *= 0xBF58476D1CE4E5B9
				a ^= a >> 27
				a *= 0x94D049BB133111EB
				a ^= a >> 31
				g.SetWrite(a, slot)
			}
			rows = append(rows, Eq2Row{
				M: m, N: n,
				Predicted: stats.PredictedFP(float64(m), float64(n)),
				Measured:  g.Occupancy(),
			})
		}
	}
	tab := &report.Table{
		Title:   "Equation (2): predicted vs measured signature collision probability",
		Headers: []string{"m (slots)", "n (addresses)", "predicted Pfp", "measured occupancy", "abs error"},
	}
	for _, r := range rows {
		tab.AddRow(r.M, r.N,
			fmt.Sprintf("%.4f", r.Predicted),
			fmt.Sprintf("%.4f", r.Measured),
			fmt.Sprintf("%.4f", abs(r.Predicted-r.Measured)))
	}
	return tab, rows, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// MergeRow is one row of the dependence-merging ablation (§III-B: merging
// identical dependences shrank NAS output by ~1e5×).
type MergeRow struct {
	Program   string
	Instances uint64
	Unique    int
	Factor    float64
}

// MergeAblation measures how many dynamic dependence instances collapse
// into each merged record.
func MergeAblation(opt Options) (*report.Table, []MergeRow, error) {
	opt = opt.norm()
	var rows []MergeRow
	for _, w := range workloads.NAS() {
		if !opt.want(w.Name) {
			continue
		}
		p := w.Build(opt.wcfg())
		prof := perfectSerial(p)
		if _, err := profileVM(p, prof.AccessBatch); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res := prof.Flush()
		r := MergeRow{Program: w.Name, Instances: res.Deps.Instances(), Unique: res.Deps.Unique()}
		if r.Unique > 0 {
			r.Factor = float64(r.Instances) / float64(r.Unique)
		}
		rows = append(rows, r)
	}
	tab := &report.Table{
		Title:   "Merging identical dependences (NAS): instances vs merged records",
		Headers: []string{"Program", "dyn. instances", "merged records", "reduction factor"},
	}
	for _, r := range rows {
		tab.AddRow(r.Program, r.Instances, r.Unique, fmt.Sprintf("%.0fx", r.Factor))
	}
	tab.Notes = append(tab.Notes, "the paper reports an average ~1e5x output-size reduction at full scale")
	return tab, rows, nil
}
