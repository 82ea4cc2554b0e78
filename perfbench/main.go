// Command perfbench is ddprof's end-to-end benchmark: the paper's slowdown
// and memory measurements (Figures 5–8) on three workloads, plus a traced
// ledger run that prices each layer by timing calls into its public
// functions from outside.
//
//	perfbench --workload dense-serial --seed 1 --seconds 20 --trace 0
//	perfbench --workload dense-serial --seed 1 --seconds 20 --trace 1 --scale 4
//	perfbench compare base.jsonl head.jsonl
//
// Every run prints a human-readable table, one `{"record": ...}` line with
// the machine/provenance stamp and every metric, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports in its result line.
// Timings are CPU seconds of the whole process (all threads), because on a
// shared virtual machine the hypervisor steals a varying share of wall-clock
// time (see README.md); the wall-clock twins are per-layer metrics.
var endToEnd = []metricDef{
	{"profile_cpu_s_p50", "s"},
	{"profile_cpu_s_tail", "s"},
	{"events_per_cpu_s", "events/s"},
	{"slowdown", "x"},
	{"peak_rss_bytes", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 (ledger) run reports in its result
// line.
var perLayer = []metricDef{
	{"profile_s_p50", "s"},
	{"profile_s_tail", "s"},
	{"events_per_s", "events/s"},
	{"slowdown_wall", "x"},
	{"minilang.build_s", "s"},
	{"vm.compile_s", "s"},
	{"vm.native_s", "s"},
	{"vm.accesses", "count"},
	{"hook.noop_s", "s"},
	{"hook.self_s", "s"},
	{"engine.replay_s", "s"},
	{"engine.ns_per_event", "ns"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.instances_per_access", "ratio"},
	{"store.probe_ns_per_event", "ns"},
	{"store.bytes", "B"},
	{"store.modeled_bytes", "B"},
	{"pipeline.replay_s", "s"},
	{"pipeline.events_per_chunk", "count"},
	{"pipeline.range_frac", "fraction"},
	{"pipeline.dup_frac", "fraction"},
	{"pipeline.control_chunks", "count"},
	{"pipeline.queue_bytes", "B"},
	{"pipeline.worker_skew", "ratio"},
	{"merge.flush_s", "s"},
	{"analysis.loops_s", "s"},
	{"dep.unique", "count"},
	{"dep.encode_s", "s"},
	{"dep.encoded_bytes", "B"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.bytes_per_event", "B"},
	{"server.stream_s", "s"},
	{"server.verdict_wait_s", "s"},
	{"server.sessions_started", "count"},
	{"server.sessions_completed", "count"},
	{"server.sessions_evicted", "count"},
	{"server.unretired_at_verdict", "count"},
	{"server.refused", "count"},
	{"obs.deps_since_s", "s"},
	{"obs.metrics_scrape_s", "s"},
	{"obs.epochs", "count"},
	{"mt.races", "count"},
	{"mt.cross_thread_deps", "count"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"gen.late_s_max", "s"},
	{"query_s_p50", "s"},
	{"query_s_tail", "s"},
	{"error_rate", "fraction"},
	{"ledger.tracing_overhead_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's operations, checks and metrics.
type report struct {
	attempted, failed int
	checksFailed      int
	failures          []string
	metrics           map[string]metric
	info              map[string]any
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), info: make(map[string]any)}
}

// maxFailures bounds the failure messages a record keeps.
const maxFailures = 8

// op counts one attempted operation (a profile, a session or a query) and
// whether it failed — erred, was refused, or failed its correctness check.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// check records a run-level invariant (conservation, leak, reference
// determinism). A failed check makes the run incorrect without being an
// operation.
func (r *report) check(err error) {
	if err != nil {
		r.checksFailed++
		r.note(err)
	}
}

func (r *report) note(err error) {
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) correct() bool { return r.failed == 0 && r.checksFailed == 0 }

// options are the parsed command line of a measuring run.
type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dense-serial, strided-parallel or threads-remote")
	seed := fs.Int64("seed", 1, "input seed; rewrites only the target's *_seed constants")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced per-layer ledger")
	scale := fs.Float64("scale", 0, "target size multiplier (0: the workload's benchmark size)")
	out := fs.String("out", filepath.Join(".bench_build", "ledger"), "directory for the ledger's span file and rung table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *scale < 0 {
		if err == nil {
			err = errors.New("--seconds must be >= 1, --trace 0 or 1, --scale >= 0")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: *scale, out: *out}
	if opt.scale == 0 {
		opt.scale = w.scale
	}

	rep := newReport()
	switch {
	case opt.trace:
		err = runLedger(opt, rep)
	case w.remote:
		err = runRemote(opt, rep)
	default:
		err = runLocal(opt, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.attempted > 0 {
		rep.set("error_rate", float64(rep.failed)/float64(rep.attempted), "fraction")
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	final := map[string]metric{}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		final[d.name] = m
	}
	printTable(stdout, rep)
	rec := map[string]any{
		"stamp":     stamp(opt, rep),
		"metrics":   rep.metrics,
		"failures":  rep.failures,
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), max(rep.attempted, 1), rep.failed, final}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printTable prints every measured metric by name and unit.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %16d/%d failed\n", "operations", rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintln(w, "failure:", f)
	}
}

// cpuTime is the CPU time the process has consumed, all threads, user and
// system. The kernel's task clock excludes time the hypervisor stole.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// timed runs fn and returns its wall-clock and process CPU seconds.
func timed(fn func()) (wall, cpu float64) {
	c0, t0 := cpuTime(), time.Now()
	fn()
	return time.Since(t0).Seconds(), cpuTime() - c0
}

// opTimes collects a measuring loop's samples: the profiles and the bare VM
// runs interleaved with them.
type opTimes struct {
	wall, cpu         []float64
	wallRate, cpuRate []float64 // accesses per second, per profile
	rss               []float64 // peak resident set, per profile
	bareWall, bareCPU []float64
}

// profile records one profile of events accesses; rss is its peak resident
// set, or 0 where it was not sampled.
func (t *opTimes) profile(wall, cpu, rss float64, events uint64) {
	t.wall = append(t.wall, wall)
	t.cpu = append(t.cpu, cpu)
	t.wallRate = append(t.wallRate, float64(events)/wall)
	t.cpuRate = append(t.cpuRate, float64(events)/cpu)
	if rss > 0 {
		t.rss = append(t.rss, rss)
	}
}

func (t *opTimes) bare(wall, cpu float64) {
	t.bareWall = append(t.bareWall, wall)
	t.bareCPU = append(t.bareCPU, cpu)
}

// record sets the timing metrics in CPU and wall-clock form, and the peak
// resident set: the median over the profiles of each one's peak, which is
// the paper's one-profile-per-process quantity. The process's lifetime peak
// goes to the record.
func (t *opTimes) record(rep *report) {
	setTimings(rep, "profile_cpu_s", t.cpu)
	setTimings(rep, "profile_s", t.wall)
	rep.set("events_per_cpu_s", median(t.cpuRate), "events/s")
	rep.set("events_per_s", median(t.wallRate), "events/s")
	rep.set("slowdown", median(t.cpu)/median(t.bareCPU), "x")
	rep.set("slowdown_wall", median(t.wall)/median(t.bareWall), "x")
	rep.set("vm.native_s", median(t.bareWall), "s")
	rep.set("vm.native_cpu_s", median(t.bareCPU), "s")
	if len(t.rss) > 0 {
		rep.set("peak_rss_bytes", median(t.rss), "B")
	}
	rep.info["peak_rss_run_bytes"] = peakRSS()
}

// rssPeriod is how often watchRSS samples the resident set.
const rssPeriod = 2 * time.Millisecond

// watchRSS samples the process's resident set from /proc/self/statm until
// the returned function is called, which returns the highest sample (0 if
// statm is unreadable). Within one profile the resident set only grows —
// freed heap is returned to the system only by the scavenger, long after —
// so the last samples bound the peak closely.
func watchRSS() (stop func() float64) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return func() float64 { return 0 }
	}
	page := float64(os.Getpagesize())
	var peak float64
	buf := make([]byte, 128)
	sample := func() {
		n, err := f.ReadAt(buf, 0)
		if err != nil && err != io.EOF {
			return
		}
		fields := strings.Fields(string(buf[:n]))
		if len(fields) < 2 {
			return
		}
		if pages, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
			peak = max(peak, float64(pages)*page)
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(rssPeriod)
		defer tk.Stop()
		for {
			sample()
			select {
			case <-quit:
				return
			case <-tk.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		sample()
		f.Close()
		return peak
	}
}

// peakRSS is the process's peak resident set, the quantity /usr/bin/time -v
// reports as "Maximum resident set size".
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// deadlines returns when a measuring loop may stop (after seconds, once it
// has enough samples) and when it must stop (whatever it has by then), so a
// run always ends well inside its time limit.
func deadlines(seconds int) (soft, hard time.Time) {
	now := time.Now()
	return now.Add(time.Duration(seconds) * time.Second),
		now.Add(time.Duration(min(3*seconds, 120)) * time.Second)
}

// settle collects the previous operation's garbage and returns the freed
// memory to the operating system before the next timed operation, so every
// sample starts from the heap and resident set a profile in a fresh process
// would start from. Otherwise a sample's time depends on how earlier
// samples happened to align with the GC pacer, and the run's peak RSS on
// whether an earlier signature's pages were still resident when the next
// one was allocated.
func settle() { debug.FreeOSMemory() }

// startSteal starts measuring the share of CPU time the hypervisor stole
// from this machine; the returned function ends the measurement. It reads
// /proc/stat and reports NaN where that is unavailable. The share is
// recorded with each result to explain outlying runs.
func startSteal() func() float64 {
	s0, t0 := cpuStat()
	return func() float64 {
		s1, t1 := cpuStat()
		if t1 <= t0 {
			return math.NaN()
		}
		return float64(s1-s0) / float64(t1-t0)
	}
}

// cpuStat returns the steal and total jiffies of the machine.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// minSamples is the fewest timed operations a measuring loop collects
// before it may stop: enough that the 90th percentile has ten samples
// beyond it.
const minSamples = 100

// setTimings records the median and tail of a timing sample set under
// prefix_p50 and prefix_tail, and the tail's percentile and sample count in
// the record.
func setTimings(rep *report, prefix string, xs []float64) {
	rep.set(prefix+"_p50", median(xs), "s")
	pct, v, _ := tail(xs)
	rep.set(prefix+"_tail", v, "s")
	rep.info[prefix+"_tail_percentile"] = pct
	rep.info[prefix+"_samples"] = len(xs)
}
