package exp

import (
	"fmt"

	"ddprof/internal/core"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// BalanceRow reports worker-load imbalance (max/mean events per worker)
// under three distribution strategies for one benchmark.
type BalanceRow struct {
	Program string
	// Modulo is the plain addr%W rule (§IV, Equation 1).
	Modulo float64
	// Redistributed adds the §IV-A heavy-hitter migration.
	Redistributed float64
	Migrations    uint64
	// RoundRobin is the untyped existence profiler's dealing (§VI-B future
	// work: no per-address ownership needed).
	RoundRobin float64
}

// Balance quantifies the load-balancing discussion of §IV-A and §VI-B:
// how evenly the profiling work spreads over 8 workers under the modulo
// rule, with heavy-hitter redistribution, and with order-free round-robin
// dealing. Unlike the timing figures this is deterministic and
// machine-independent.
func Balance(opt Options) (*report.Table, []BalanceRow, error) {
	opt = opt.norm()
	const workers = 8
	var rows []BalanceRow
	// The paper names kMeans, rgbyuv, rotate, bodytrack and h264dec as the
	// benchmarks whose imbalanced access patterns hurt scaling.
	names := []string{"kmeans", "rgbyuv", "rotate", "bodytrack", "h264dec", "CG", "FT"}
	for _, name := range names {
		if !opt.want(name) {
			continue
		}
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		row := BalanceRow{Program: name}

		run := func(redistribute int) (*core.Result, error) {
			p := w.Build(opt.wcfg())
			prof := core.NewParallel(core.Config{
				Workers:           workers,
				Backend:           "perfect",
				RedistributeEvery: redistribute,
				Metrics:           Telemetry,
			})
			if _, err := profileVM(p, prof.AccessBatch); err != nil {
				return nil, err
			}
			return prof.Flush(), nil
		}
		res, err := run(0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Modulo = core.Imbalance(res.WorkerEvents)

		res, err = run(16)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Redistributed = core.Imbalance(res.WorkerEvents)
		row.Migrations = res.Stats.Migrations

		ex := core.NewExistence(core.Config{Workers: workers})
		if _, err := profileVM(w.Build(opt.wcfg()), ex.AccessBatch); err != nil {
			return nil, nil, fmt.Errorf("%s existence: %w", name, err)
		}
		row.RoundRobin = core.Imbalance(ex.Flush().WorkerEvents)
		rows = append(rows, row)
	}

	tab := &report.Table{
		Title:   "Load balance (§IV-A, §VI-B): worker imbalance = max/mean events over 8 workers",
		Headers: []string{"Program", "modulo", "modulo+redistribution", "migrations", "round-robin (untyped)"},
	}
	for _, r := range rows {
		tab.AddRow(r.Program, fmt.Sprintf("%.2f", r.Modulo),
			fmt.Sprintf("%.2f", r.Redistributed), r.Migrations,
			fmt.Sprintf("%.2f", r.RoundRobin))
	}
	tab.Notes = append(tab.Notes,
		"1.00 = perfect balance; the round-robin column is only available because untyped",
		"existence profiling does not need per-address ordering (the paper's §VI-B future work)")
	return tab, rows, nil
}
