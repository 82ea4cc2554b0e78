package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// boundDef is one gated metric: which way is better and by what share of
// the base it may get worse.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is one run's `{"record": ...}` line.
type record struct {
	Stamp struct {
		Machine  machine `json:"machine"`
		Workload string  `json:"workload"`
		Trace    bool    `json:"trace"`
		Scale    float64 `json:"scale"`
	} `json:"stamp"`
	Metrics   map[string]metric `json:"metrics"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

// loadRecords reads every record line of a file of captured benchmark
// output; other lines are skipped.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !wrap.Record.Stamp.Trace {
			out = append(out, wrap.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end records", path)
	}
	return out, nil
}

// machineClass returns the one machine class all records share, or an
// error naming the first two that differ.
func machineClass(recs []record) (machine, error) {
	m := recs[0].Stamp.Machine
	for _, r := range recs[1:] {
		if r.Stamp.Machine != m {
			return m, fmt.Errorf("mixed machine classes: %+v and %+v", m, r.Stamp.Machine)
		}
	}
	return m, nil
}

// Exit statuses of the comparison.
const (
	compareOK         = 0 // every metric within its bound
	compareFail       = 1 // a regression, or the head is less correct than the base
	compareUsage      = 2 // usage or input error
	compareRefused    = 3 // results from different machine classes or target sizes
	compareUnresolved = 4 // no failure, but some base spreads wider than its bound
)

// compareMain compares two sets of end-to-end results metric by metric
// against the bounds in BENCHMARK.json: a metric regresses when the head's
// median is worse than the base's by more than its bound, and is unresolved
// when the base's own runs spread (interquartile distance over median)
// wider than the bound. A head with an incorrect record, or a higher share
// of failed operations than the base, fails whatever its speed. Results
// from different machine classes, or of one workload at different scales,
// are refused: neither passed nor failed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] BASE HEAD")
		return compareUsage
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return compareUsage
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return compareUsage
	}
	base, err := loadRecords(fs.Arg(0))
	if err == nil {
		var head []record
		head, err = loadRecords(fs.Arg(1))
		if err == nil {
			return compare(spec, base, head, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return compareUsage
}

// errorRate is the share of the records' operations that failed.
func errorRate(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func compare(spec benchSpec, base, head []record, stdout, stderr io.Writer) int {
	mb, errB := machineClass(base)
	mh, errH := machineClass(head)
	switch {
	case errB != nil:
		fmt.Fprintln(stderr, "perfbench compare: refused: base:", errB)
		return compareRefused
	case errH != nil:
		fmt.Fprintln(stderr, "perfbench compare: refused: head:", errH)
		return compareRefused
	case mb != mh:
		fmt.Fprintf(stderr, "perfbench compare: refused: base ran on %+v, head on %+v\n", mb, mh)
		return compareRefused
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Stamp.Workload] = append(m[r.Stamp.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for n := range bw {
		if _, ok := hw[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: no workload measured on both sides")
		return compareUsage
	}
	for _, n := range names {
		scale := bw[n][0].Stamp.Scale
		for _, r := range append(bw[n], hw[n]...) {
			if r.Stamp.Scale != scale {
				fmt.Fprintf(stderr, "perfbench compare: refused: %s measured at scales %g and %g\n", n, scale, r.Stamp.Scale)
				return compareRefused
			}
		}
	}
	status := compareOK
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "base_p50", "head_p50", "worse", "bound", "verdict")
	for _, n := range names {
		incorrect := 0
		for _, r := range hw[n] {
			if !r.Correct {
				incorrect++
			}
		}
		be, he := errorRate(bw[n]), errorRate(hw[n])
		verdict := "ok"
		if incorrect > 0 || he > be {
			verdict = "FAILED"
			status = compareFail
		}
		fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %8s %6s  %s (%d of %d head records incorrect)\n",
			n, "error_rate", be, he, "", "", verdict, incorrect, len(hw[n]))
		for _, m := range spec.EndToEnd {
			vals := func(recs []record) []float64 {
				var xs []float64
				for _, r := range recs {
					if v, ok := r.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			bv := vals(bw[n])
			b, h := median(bv), median(vals(hw[n]))
			worse := (h - b) / b
			if m.Better == "higher" {
				worse = (b - h) / b
			}
			verdict := "ok"
			switch {
			case len(bv) > 1 && spread(bv) > m.Bound:
				// The base's own runs disagree by more than the bound:
				// no verdict either way.
				verdict = "unresolved"
				if status == compareOK {
					status = compareUnresolved
				}
			case worse > m.Bound:
				verdict = "REGRESSION"
				status = compareFail
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n", n, m.Name, b, h, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
