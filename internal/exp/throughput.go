package exp

import (
	"fmt"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// ThroughputRow is one pipeline's events-per-second series, measured over the
// whole workload suite.
type ThroughputRow struct {
	Pipeline  string
	Events    uint64  // read/write accesses profiled per replay
	EPS       float64 // events/s
	CacheHit  float64 // instance-cache hit rate, percent
	DupPct    float64 // producer duplicate reads collapsed, percent of events
	CompRatio float64 // accesses per stored record (stride compression), 1 = none
}

// Throughput measures raw profiling throughput (events/s) of the serial,
// parallel and MT pipelines over the captured access streams of the workload
// suite. This is the experiment behind the BenchmarkHotPath gate: the same
// streams, replayed rather than re-executed, so the interpreter is out of
// the measurement.
func Throughput(opt Options) (*report.Table, []ThroughputRow, error) {
	opt = opt.norm()

	type stream struct {
		name string
		meta *prog.Meta
		cap  *event.Recorder
	}
	var streams []stream
	for _, w := range workloads.All() {
		if !opt.want(w.Name) {
			continue
		}
		p := w.Build(opt.wcfg())
		c, _, err := captureRun(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s capture: %w", w.Name, err)
		}
		streams = append(streams, stream{name: w.Name, meta: p.Meta, cap: c})
	}
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("no workloads selected")
	}

	type pipeline struct {
		name string
		mk   func(meta *prog.Meta) core.Profiler
	}
	pipes := []pipeline{
		{"serial", func(meta *prog.Meta) core.Profiler {
			return core.NewSerial(core.Config{
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				Metrics:        Telemetry,
			})
		}},
		{"parallel-8T", func(meta *prog.Meta) core.Profiler {
			return core.NewParallel(core.Config{
				Workers:        8,
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				Metrics:        Telemetry,
			})
		}},
		{"mt-8T", func(meta *prog.Meta) core.Profiler {
			return core.NewMT(core.Config{
				Workers:        8,
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				Metrics:        Telemetry,
			})
		}},
	}

	var rows []ThroughputRow
	for _, pipe := range pipes {
		row := ThroughputRow{Pipeline: pipe.name}
		var hits, probes, dups, ranges, rangeElems uint64
		d, err := timeRun(opt.Reps, func() error {
			row.Events, hits, probes, dups, ranges, rangeElems = 0, 0, 0, 0, 0, 0
			for _, s := range streams {
				res := replay(s.cap, pipe.mk(s.meta))
				row.Events += res.Stats.Accesses
				hits += res.Stats.DepCacheHits
				probes += res.Stats.DepCacheProbes
				dups += res.Stats.DupCollapsed
				ranges += res.Stats.Ranges
				rangeElems += res.Stats.RangeElements
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s replay: %w", pipe.name, err)
		}
		row.EPS = float64(row.Events) / d.Seconds()
		if probes > 0 {
			row.CacheHit = 100 * float64(hits) / float64(probes)
		}
		if row.Events > 0 {
			row.DupPct = 100 * float64(dups) / float64(row.Events)
			if stored := row.Events - rangeElems + ranges; stored > 0 {
				row.CompRatio = float64(row.Events) / float64(stored)
			}
		}
		rows = append(rows, row)
	}

	tab := &report.Table{
		Title:   "Throughput: profiling events/s over the workload suite",
		Headers: []string{"Pipeline", "events", "ev/s", "cache hit", "dups collapsed", "comp ratio"},
	}
	for _, r := range rows {
		tab.AddRow(r.Pipeline, r.Events, fmt.Sprintf("%.0f", r.EPS),
			fmt.Sprintf("%.1f%%", r.CacheHit), fmt.Sprintf("%.1f%%", r.DupPct),
			fmt.Sprintf("%.2fx", r.CompRatio))
	}
	tab.Notes = append(tab.Notes,
		"streams are captured once and replayed, so interpreter time is excluded")
	return tab, rows, nil
}
