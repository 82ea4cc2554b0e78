package exp

import (
	"fmt"

	"ddprof/internal/report"
	"ddprof/internal/stats"
	"ddprof/internal/workloads"
)

// SweepRow is one point of the signature-size sweep.
type SweepRow struct {
	Slots     int
	FPR, FNR  float64
	Predicted float64 // Eq. (2) prediction for this m and the stream's n
}

// Sweep traces the full FPR/FNR-vs-signature-size curve for one workload,
// from far below its address footprint to far above, alongside the Eq. (2)
// collision prediction. Table I samples this curve at three sizes; the
// sweep exposes the intermediate regime (rates fall as m grows, hitting
// exactly zero once m exceeds the footprint).
func Sweep(opt Options, workload string) (*report.Table, []SweepRow, error) {
	opt = opt.norm()
	w, ok := workloads.ByName(workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	cap, _, err := captureRun(w.Build(opt.wcfg()))
	if err != nil {
		return nil, nil, err
	}
	truth := replay(cap, perfectSerial(w.Build(opt.wcfg())))
	n := cap.Addresses()

	var rows []SweepRow
	// Sweep m over n/16 .. 16n in powers of two.
	for m := n / 16; m <= n*16; m *= 2 {
		if m < 4 {
			m = 4
		}
		got := replay(cap, sigSerial(w.Build(opt.wcfg()), m))
		r := stats.Compare(truth.Deps, got.Deps)
		rows = append(rows, SweepRow{
			Slots:     m,
			FPR:       r.FPR,
			FNR:       r.FNR,
			Predicted: 100 * stats.PredictedFP(float64(m), float64(n)),
		})
	}

	tab := &report.Table{
		Title:   fmt.Sprintf("Signature-size sweep for %s (%d addresses, %d true deps)", workload, n, truth.Deps.Unique()),
		Headers: []string{"slots", "slots/addresses", "FPR%", "FNR%", "Eq.(2) slot-collision%"},
	}
	for _, r := range rows {
		tab.AddRow(r.Slots, fmt.Sprintf("%.2f", float64(r.Slots)/float64(n)),
			r.FPR, r.FNR, fmt.Sprintf("%.1f", r.Predicted))
	}
	tab.Notes = append(tab.Notes,
		"FPR/FNR are over merged dependence records; Eq.(2) predicts per-address slot",
		"collisions, the mechanism that produces them — both fall to 0 once slots exceed",
		"the footprint")
	return tab, rows, nil
}
