// Command ddprof profiles a bundled benchmark program and prints its data
// dependences in the paper's output format (Figure 1 / Figure 3), followed
// by the '#'-prefixed analysis report of a local run: loop parallelism
// verdicts (§VII-A), section dependences, hot dependences and the dynamic
// call graph, plus the communication heatmap and race listing (§VII-B, §V-B)
// under -mode mt.
//
// Usage:
//
//	ddprof -workload kmeans                      # serial profiling
//	ddprof -workload CG -mode parallel -summary  # loop parallelism report only
//	ddprof -workload water-spatial -mode mt -threads 8 -summary  # communication pattern
//	ddprof -file prog.ml                         # profile a minilang source file
//	ddprof -workload kmeans -mode parallel -workers 16
//	ddprof -workload kmeans -mode mt -threads 4  # profile the pthread variant
//	ddprof -workload kmeans -remote :7077        # profile on a ddprofd daemon
//	ddprof -remote :7077 -watch                  # watch a live session's epoch deltas
//	ddprof -workload kmeans -cpuprofile cpu.out  # profile the profiler
//	ddprof -list                                 # show available workloads
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"ddprof"
	"ddprof/internal/dep"
	"ddprof/internal/loc"
	"ddprof/internal/server"
	"ddprof/internal/trace"
	"ddprof/internal/workloads"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "quick", "workload name (see -list), or 'quick' for a demo loop")
		file    = flag.String("file", "", "profile a minilang source file instead of a bundled workload")
		mode    = flag.String("mode", "serial", "profiler mode: serial | parallel | lockbased | mt")
		workers = flag.Int("workers", 8, "profiling worker threads (parallel modes)")
		slots   = flag.Int("slots", 1<<21, "total signature slots")
		backend = flag.String("backend", "", "store backend spec: signature | perfect | shadow | hashtab | hybrid[:key=val,...] (default signature sized by -slots)")
		scale   = flag.Float64("scale", 1, "workload problem-size multiplier")
		threads = flag.Int("threads", 4, "target threads for -mode mt (pthread variants)")
		list    = flag.Bool("list", false, "list available workloads and exit")
		summary = flag.Bool("summary", false, "print only the summary, not the dependence dump")
		out     = flag.String("o", "", "write the dependence dump to a file instead of stdout")
		format  = flag.String("format", "text", "dump format: text (Figure 1/3) | binary")
		remote  = flag.String("remote", "", "profile on a ddprofd daemon: host:port or unix:/path.sock")
		frameKB = flag.Int("framebytes", 0, "with -remote: wire frame size in bytes (one trace-buffer flush = one frame; 0 = 64KiB default; the daemon rejects frames above its fixed 1MiB cap)")
		watch   = flag.Bool("watch", false, "with -remote: subscribe to a session's live epoch-delta stream instead of profiling")
		watchID = flag.Uint64("watch-session", 0, "with -watch: daemon session to observe (0 = newest active, waiting for the next when none is)")
		watchAt = flag.Uint64("watch-since", 0, "with -watch: catch up from this epoch (0 = the full profile so far)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the profiler to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	if *watch {
		if *remote == "" {
			fmt.Fprintln(os.Stderr, "ddprof: -watch needs -remote (a ddprofd daemon to subscribe to)")
			return 2
		}
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddprof:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		return runWatch(*remote, *watchID, uint32(*watchAt), w, *summary, *format)
	}

	if *list {
		fmt.Println("available workloads:")
		for _, w := range workloads.All() {
			par := ""
			if w.BuildParallel != nil {
				par = " (has pthread variant)"
			}
			fmt.Printf("  %-14s %s%s\n", w.Name, w.Suite, par)
		}
		fmt.Println("  water-spatial  splash (pthread only)")
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddprof:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ddprof:", err)
			}
		}()
	}

	var prog *ddprof.Program
	var isMT bool
	var err error
	if *file != "" {
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", rerr)
			return 1
		}
		prog, err = ddprof.ParseTarget(*file, string(src))
	} else {
		prog, isMT, err = buildTarget(*name, *scale, *threads, *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	if *remote != "" {
		return runRemote(prog, isMT || *mode == "mt", w, *remote, *workers, *backend, *summary, *format, *frameKB)
	}

	cfg := ddprof.Config{Workers: *workers, Slots: *slots, Backend: *backend}
	switch *mode {
	case "serial":
		cfg.Mode = ddprof.ModeSerial
	case "parallel":
		cfg.Mode = ddprof.ModeParallel
	case "lockbased":
		cfg.Mode = ddprof.ModeParallelLockBased
	case "mt":
		cfg.Mode = ddprof.ModeMT
	default:
		fmt.Fprintf(os.Stderr, "ddprof: unknown mode %q\n", *mode)
		return 2
	}
	if isMT && cfg.Mode != ddprof.ModeMT {
		fmt.Fprintln(os.Stderr, "ddprof: note: profiling a multi-threaded target; forcing -mode mt")
		cfg.Mode = ddprof.ModeMT
	}

	res, err := ddprof.Profile(prog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	if !*summary {
		switch *format {
		case "text":
			err = res.WriteDeps(w)
		case "binary":
			err = res.SaveBinary(w)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
	}
	fmt.Println()
	if err := res.WriteReport(os.Stdout, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	return 0
}

// runRemote executes the target locally while streaming its trace to a
// ddprofd daemon, then renders the dependence set the daemon returned.
func runRemote(prog *ddprof.Program, mt bool, w io.Writer, addr string, workers int, backend string, summary bool, format string, frameBytes int) int {
	conn, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	defer conn.Close()
	rr, err := server.ProfileRemote(conn, prog, server.ClientOptions{
		Workers:    workers,
		Backend:    backend,
		MT:         mt,
		FrameBytes: frameBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	if !summary {
		switch format {
		case "text":
			err = dep.Write(w, rr.Deps, prog.Tab, rr.LoopRecords,
				dep.WriterOptions{Threads: mt, MarkRaces: mt})
		case "binary":
			err = dep.Encode(w, rr.Deps, prog.Tab, rr.LoopRecords)
		default:
			err = fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
	}
	fmt.Printf("\n# %s: %d accesses streamed to %s, %d dependences (%d dynamic instances merged)\n",
		prog.Name, rr.Events, addr, rr.Deps.Unique(), rr.Deps.Instances())
	return 0
}

// runWatch subscribes to a daemon session's live observatory and renders the
// epoch-delta stream: one status line per frame, and — because the folded
// frames reconstruct the session's exact final profile — the full dependence
// dump once the final frame lands.
func runWatch(addr string, session uint64, since uint32, w io.Writer, summary bool, format string) int {
	conn, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	defer conn.Close()

	folded := dep.NewSet()
	var tab *loc.Table
	frames := 0
	err = server.Watch(conn, server.WatchOptions{Session: session, Since: since}, func(f trace.DeltaFrame) error {
		set, _, t, err := dep.Decode(bytes.NewReader(f.Payload))
		if err != nil {
			return fmt.Errorf("frame for epoch %d: %w", f.Epoch, err)
		}
		if t != nil {
			tab = t
		}
		folded.Merge(set)
		frames++
		tag := ""
		if f.Final {
			tag = " final:"
		}
		fmt.Fprintf(os.Stderr, "# epoch %d:%s %d dependences advanced, %d distinct so far (%d instances)\n",
			f.Epoch, tag, set.Unique(), folded.Unique(), folded.Instances())
		set.Release()
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprof:", err)
		return 1
	}
	if !summary {
		switch format {
		case "text":
			err = dep.Write(w, folded, tab, nil, dep.WriterOptions{})
		case "binary":
			err = dep.Encode(w, folded, tab, nil)
		default:
			err = fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddprof:", err)
			return 1
		}
	}
	fmt.Printf("\n# watch: %d delta frames from %s, %d dependences (%d dynamic instances merged)\n",
		frames, addr, folded.Unique(), folded.Instances())
	return 0
}

// buildTarget resolves a workload name to a program.
func buildTarget(name string, scale float64, threads int, mode string) (*ddprof.Program, bool, error) {
	if name == "quick" {
		p := ddprof.NewProgram("quick")
		p.MainFunc(func(b *ddprof.Block) {
			b.Decl("sum", ddprof.Ci(0))
			b.For("i", ddprof.Ci(0), ddprof.Ci(100), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "demo"}, func(l *ddprof.Block) {
					l.Reduce("sum", ddprof.OpAdd, ddprof.V("i"))
				})
		})
		return p, false, nil
	}
	cfg := workloads.Config{Scale: scale, Threads: threads}
	if name == "water-spatial" {
		return workloads.WaterSpatial(cfg), true, nil
	}
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, false, fmt.Errorf("unknown workload %q (try -list)", name)
	}
	if mode == "mt" {
		if w.BuildParallel == nil {
			return nil, false, fmt.Errorf("workload %q has no multi-threaded variant", name)
		}
		return w.BuildParallel(cfg), true, nil
	}
	return w.Build(cfg), false, nil
}
