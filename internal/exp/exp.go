// Package exp implements one driver per table and figure of the paper's
// evaluation (§VI, §VII). Each driver runs the workloads through the
// profiler configurations the paper compares and renders the same rows or
// series the paper reports. cmd/ddexp exposes them on the command line and
// bench_test.go as testing.B benchmarks.
package exp

import (
	"fmt"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/telemetry"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// Telemetry, when non-nil (cmd/ddexp sets it under -metrics), is attached to
// every profiler the experiments construct, so a local experiment run exposes
// the same live pipeline counters as the ddprofd service.
var Telemetry *telemetry.Pipeline

// Options scale and configure the experiments.
type Options struct {
	// Scale multiplies workload problem sizes (1.0 = small default).
	Scale float64
	// TargetThreads is the thread count of parallel target programs
	// (paper: 4).
	TargetThreads int
	// Slots are the Table I signature sizes. The default {1e4, 1e5, 1e6}
	// scales the paper's {1e6, 1e7, 1e8} down with the address counts;
	// -scale paper restores the original sizes.
	Slots []int
	// SlotsPerWorker is the per-worker signature size of the performance
	// experiments (paper: 6.25e6 per worker, 1e8 total over 16).
	SlotsPerWorker int
	// Reps is the number of timing repetitions to average (paper: 3).
	Reps int
	// Only restricts an experiment to the named workloads (empty = all).
	Only []string
}

// runVM executes p on the bytecode VM, feeding its events to hook.
func runVM(p *minilang.Program, hook event.Hook, iopt interp.Options) (*interp.RunInfo, error) {
	return vm.New().Run(p, hook, iopt)
}

// want reports whether a workload participates under the Only filter.
func (o Options) want(name string) bool {
	if len(o.Only) == 0 {
		return true
	}
	for _, n := range o.Only {
		if n == name {
			return true
		}
	}
	return false
}

// Defaults returns the small-scale configuration.
func Defaults() Options {
	return Options{
		Scale:          1,
		TargetThreads:  4,
		Slots:          []int{10_000, 100_000, 1_000_000},
		SlotsPerWorker: 1 << 17,
		Reps:           1,
	}
}

// PaperScale returns a configuration with the paper's signature sizes and
// larger workloads; expect multi-minute runtimes.
func PaperScale() Options {
	o := Defaults()
	o.Scale = 4
	o.Slots = []int{1_000_000, 10_000_000, 100_000_000}
	o.SlotsPerWorker = 6_250_000
	o.Reps = 3
	return o
}

func (o Options) norm() Options {
	d := Defaults()
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.TargetThreads <= 0 {
		o.TargetThreads = d.TargetThreads
	}
	if len(o.Slots) == 0 {
		o.Slots = d.Slots
	}
	if o.SlotsPerWorker <= 0 {
		o.SlotsPerWorker = d.SlotsPerWorker
	}
	if o.Reps <= 0 {
		o.Reps = d.Reps
	}
	return o
}

func (o Options) wcfg() workloads.Config {
	return workloads.Config{Scale: o.Scale, Threads: o.TargetThreads}
}

// profileVM executes p on the VM with a sequential-target profiler fed
// through the chunk hook; the caller flushes it.
func profileVM(p *minilang.Program, feed func([]event.Access, []event.Range)) (*interp.RunInfo, error) {
	h := event.NewChunkHook(feed)
	info, err := runVM(p, h, interp.Options{})
	h.Close()
	return info, err
}

// replay feeds a recorded stream into a profiler in chunk-sized batches and
// flushes it.
func replay(c *event.Recorder, p core.Profiler) *core.Result {
	evs := c.Events()
	for i := 0; i < len(evs); i += event.ChunkSize {
		p.AccessBatch(evs[i:min(i+event.ChunkSize, len(evs))], nil)
	}
	return p.Flush()
}

// captureRun executes a program once under a recording hook.
func captureRun(p *minilang.Program) (*event.Recorder, *interp.RunInfo, error) {
	c := event.NewRecorder()
	info, err := runVM(p, c, interp.Options{})
	if err != nil {
		return nil, nil, err
	}
	return c, info, nil
}

// timeRun measures the wall time of fn averaged over reps runs.
func timeRun(reps int, fn func() error) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps), nil
}

// backendSerial builds a serial profiler over any backend spec.
func backendSerial(p *minilang.Program, backend string, slots int) *core.Serial {
	return core.NewSerial(core.Config{
		Backend:        backend,
		SlotsPerWorker: slots,
		Meta:           p.Meta,
		Metrics:        Telemetry,
	})
}

// perfectSerial builds a serial profiler with an exact store.
func perfectSerial(p *minilang.Program) *core.Serial {
	return backendSerial(p, "perfect", 0)
}

// sigSerial builds a serial profiler with a real signature.
func sigSerial(p *minilang.Program, slots int) *core.Serial {
	return backendSerial(p, "signature", slots)
}

// slowdown formats a profiling/native time ratio.
func slowdown(prof, native time.Duration) float64 {
	if native <= 0 {
		return 0
	}
	return float64(prof) / float64(native)
}

// geoLabel annotates suite-average rows.
func geoLabel(suite string) string { return fmt.Sprintf("%s-average", suite) }
