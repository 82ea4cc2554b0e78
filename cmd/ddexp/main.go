// Command ddexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ddexp table1            # Table I  (FPR/FNR vs signature size)
//	ddexp table2            # Table II (parallelizable NAS loops)
//	ddexp fig5              # Figure 5 (sequential-target slowdowns)
//	ddexp fig6              # Figure 6 (parallel-target slowdowns)
//	ddexp fig7              # Figure 7 (memory, sequential targets)
//	ddexp fig8              # Figure 8 (memory, parallel targets)
//	ddexp fig9              # Figure 9 (water-spatial communication matrix)
//	ddexp eq2               # Equation (2) validation
//	ddexp merge             # dependence-merging ablation (§III-B)
//	ddexp stores            # signature vs hash table vs shadow memory (§III-B)
//	ddexp balance           # worker load balance: modulo vs redistribution vs round-robin
//	ddexp sweep             # full FPR/FNR-vs-signature-size curve (rotate)
//	ddexp throughput        # events/s per pipeline, hot path off vs on
//	ddexp all               # everything above
//
//	ddexp -trace-out run.json all
//	                        # record the flight-recorder timeline and write a
//	                        # Chrome trace-event file (load in Perfetto /
//	                        # chrome://tracing); each experiment is a span
//
//	go test -bench BenchmarkHotPath . | ddexp -bench-label after benchjson
//	                        # parse benchmark output from stdin and append a
//	                        # labelled run to BENCH_pipeline.json (make bench)
//	go test -bench BenchmarkHotPath . | ddexp -bench-compare hotpath benchjson
//	                        # compare stdin against the recorded "hotpath" run
//	                        # and exit 1 on a >10% events/s regression
//	                        # (make bench-gate)
//
// Flags: -scale N (problem size multiplier), -paper (paper-scale signature
// sizes and repetitions), -only a,b,c (restrict to named workloads),
// -reps N (timing repetitions), -metrics addr (serve live pipeline counters
// plus /debug/pprof over HTTP while the experiments run), -trace-out path
// and -trace-interval d (flight-recorder capture), -log-level
// (debug|info|warn|error), -bench-json path and -bench-label name
// (destination file and run label for the benchjson subcommand).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"ddprof/internal/exp"
	"ddprof/internal/report"
	"ddprof/internal/telemetry"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0, "workload problem-size multiplier (0 = default)")
		paper    = flag.Bool("paper", false, "use the paper's signature sizes (1e6/1e7/1e8) and 3 timing reps")
		only     = flag.String("only", "", "comma-separated workload names to restrict to")
		reps     = flag.Int("reps", 0, "timing repetitions (0 = default)")
		metrics  = flag.String("metrics", "", "HTTP address serving live /metrics and /debug/pprof while experiments run (e.g. :7078)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file (Perfetto-loadable)")
		traceInt = flag.Duration("trace-interval", 50*time.Millisecond, "flight-recorder sampling interval for -trace-out")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")

		benchJSON    = flag.String("bench-json", "BENCH_pipeline.json", "destination file for the benchjson subcommand")
		benchLabel   = flag.String("bench-label", "run", "run label for the benchjson subcommand")
		benchCompare = flag.String("bench-compare", "", "compare stdin against this recorded run label instead of appending; exit 1 on regression")
		benchTol     = flag.Float64("bench-tolerance", 0.10, "events/s fraction a sub-benchmark may fall below the baseline before -bench-compare fails")
		strideGate   = flag.Float64("stride-gate", 1.5, "minimum events/s factor a strided sub-benchmark must hold over its -nostride twin in -bench-compare mode")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ddexp: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ddexp [flags] table1|table2|fig5|fig6|fig7|fig8|fig9|eq2|merge|stores|balance|sweep|throughput|benchjson|all")
		os.Exit(2)
	}

	if flag.Arg(0) == "benchjson" {
		// Not an experiment: filter `go test -bench` output from stdin into
		// the append-only benchmark log the `make bench` gate reads.
		entries, err := exp.ParseBench(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddexp benchjson:", err)
			os.Exit(1)
		}
		if *benchCompare != "" {
			// Gate mode (make bench-gate): compare against a recorded run,
			// fail loudly on regression, record nothing.
			deltas, err := exp.CompareBench(*benchJSON, *benchCompare, entries, *benchTol)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddexp benchjson:", err)
				os.Exit(1)
			}
			regressed := false
			for _, d := range deltas {
				verdict := "ok"
				if d.Regressed {
					verdict = "REGRESSED"
					regressed = true
				}
				fmt.Printf("%-12s %14.0f events/s vs %14.0f baseline (%5.1f%%)  %s\n",
					d.Name, d.Now, d.Base, 100*d.Ratio, verdict)
			}
			// The stride-compression gate rides along: strided entries must
			// beat their -nostride twins by the configured factor within this
			// fresh run (no baseline needed — the twin is the baseline).
			failed := false
			for _, g := range exp.GateStrideTwins(entries, *strideGate) {
				verdict := "ok"
				if !g.Pass {
					verdict = "BELOW GATE"
					failed = true
				}
				fmt.Printf("%-12s %14.0f events/s vs %14.0f -nostride  (%4.2fx)  %s\n",
					g.Name, g.With, g.Without, g.Ratio, verdict)
			}
			if regressed {
				fmt.Fprintf(os.Stderr, "ddexp benchjson: events/s regressed more than %.0f%% below run %q\n",
					100**benchTol, *benchCompare)
				os.Exit(1)
			}
			if failed {
				fmt.Fprintf(os.Stderr, "ddexp benchjson: strided workloads must run >= %.2fx their -nostride twins\n",
					*strideGate)
				os.Exit(1)
			}
			return
		}
		bf, err := exp.AppendBenchRun(*benchJSON, *benchLabel, entries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddexp benchjson:", err)
			os.Exit(1)
		}
		for _, e := range entries {
			fmt.Printf("%s: recorded %-12s %14.0f events/s\n", *benchJSON, e.Name, e.EventsPerSec)
		}
		fmt.Printf("%s: %d run(s) on record\n", *benchJSON, len(bf.Runs))
		return
	}

	// Observability for the experiment run: live counters on the shared
	// default registry, an optional flight-recorder capture, and a metrics
	// server that is shut down cleanly once the experiments finish instead
	// of leaking until process exit.
	var snap *telemetry.Snapshotter
	if *metrics != "" || *traceOut != "" {
		exp.Telemetry = telemetry.Default().Pipeline("pipeline")
	}
	if *traceOut != "" {
		snap = telemetry.NewSnapshotter(telemetry.Default(), *traceInt, 1<<14)
		snap.Start()
	}
	var metricsSrv *http.Server
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Default().Handler())
		if snap != nil {
			mux.Handle("/debug/timeline", snap.TimelineHandler())
		}
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			logger.Info("ddexp: metrics server up", "url", "http://"+*metrics+"/metrics")
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("ddexp: metrics server", "err", err)
			}
		}()
	}
	// shutdownObservability runs on every exit path (including failures) so
	// the listener is released and a partial trace still gets written.
	shutdownObservability := func() {
		if snap != nil {
			snap.Stop()
			f, err := os.Create(*traceOut)
			if err != nil {
				logger.Error("ddexp: trace-out", "err", err)
			} else {
				if err := snap.WriteChromeTrace(f); err != nil {
					logger.Error("ddexp: trace-out", "err", err)
				}
				f.Close()
				logger.Info("ddexp: wrote flight-recorder trace",
					"path", *traceOut, "samples", snap.Total())
			}
		}
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := metricsSrv.Shutdown(ctx); err != nil {
				logger.Warn("ddexp: metrics server shutdown", "err", err)
			}
		}
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		shutdownObservability()
		os.Exit(1)
	}

	opt := exp.Defaults()
	if *paper {
		opt = exp.PaperScale()
	}
	if *scale > 0 {
		opt.Scale = *scale
	}
	if *reps > 0 {
		opt.Reps = *reps
	}
	if *only != "" {
		opt.Only = strings.Split(*only, ",")
	}

	runners := map[string]func(exp.Options) error{
		"table1": func(o exp.Options) error { return render(exp.Table1(o)) },
		"table2": func(o exp.Options) error { return render(exp.Table2(o)) },
		"fig5":   func(o exp.Options) error { return render(exp.Fig5(o)) },
		"fig6":   func(o exp.Options) error { return render(exp.Fig6(o)) },
		"fig7":   func(o exp.Options) error { return render(exp.Fig7(o)) },
		"fig8":   func(o exp.Options) error { return render(exp.Fig8(o)) },
		"fig9": func(o exp.Options) error {
			tab, res, err := exp.Fig9(o)
			if err != nil {
				return err
			}
			tab.Render(os.Stdout)
			fmt.Println()
			fmt.Println(res.Heatmap)
			return nil
		},
		"eq2":   func(o exp.Options) error { return render(exp.Eq2(o)) },
		"merge": func(o exp.Options) error { return render(exp.MergeAblation(o)) },
		"stores": func(o exp.Options) error {
			if err := render(exp.StoreAblation(o)); err != nil {
				return err
			}
			return render(exp.StoreAccuracy(o))
		},
		"balance":    func(o exp.Options) error { return render(exp.Balance(o)) },
		"sweep":      func(o exp.Options) error { return render(exp.Sweep(o, "rotate")) },
		"throughput": func(o exp.Options) error { return render(exp.Throughput(o)) },
	}
	order := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "eq2", "merge", "stores", "balance", "sweep", "throughput"}

	// runOne wraps a runner in a flight-recorder span so each experiment
	// shows up as a named slice on the trace timeline.
	runOne := func(name string, fn func(exp.Options) error) error {
		if snap != nil {
			end := snap.Span("experiment:" + name)
			defer end()
		}
		logger.Debug("ddexp: running experiment", "name", name)
		return fn(opt)
	}

	what := flag.Arg(0)
	if what == "all" {
		for _, name := range order {
			fmt.Printf("== %s ==\n", name)
			if err := runOne(name, runners[name]); err != nil {
				fail("ddexp %s: %v\n", name, err)
			}
			fmt.Println()
		}
		shutdownObservability()
		return
	}
	run, ok := runners[what]
	if !ok {
		fmt.Fprintf(os.Stderr, "ddexp: unknown experiment %q\n", what)
		os.Exit(2)
	}
	if err := runOne(what, run); err != nil {
		fail("ddexp: %v\n", err)
	}
	shutdownObservability()
}

// render prints a (table, rows, err) experiment result, discarding rows.
func render[T any](tab *report.Table, _ T, err error) error {
	if err != nil {
		return err
	}
	tab.Render(os.Stdout)
	return nil
}
