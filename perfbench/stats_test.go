package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort first
	}
	return xs
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it, by nearest rank.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n       int
		pct     float64
		val     float64
		ok      bool
		comment string
	}{
		{n: 100, pct: 90, val: 90, ok: true, comment: "rank 90 leaves exactly 10 beyond"},
		{n: 199, pct: 90, val: 180, ok: true, comment: "p99 would leave 1 beyond"},
		{n: 99, pct: 50, val: 50, ok: true, comment: "p90 is rank 90, 9 beyond"},
		{n: 1000, pct: 99, val: 990, ok: true, comment: "rank 990 leaves 10 beyond"},
		{n: 20, pct: 50, val: 10, ok: true, comment: "the smallest sample set with a tail"},
		{n: 19, pct: 100, val: 19, ok: false, comment: "too few samples: the maximum, flagged"},
	}
	for _, c := range cases {
		pct, val, ok := tail(seq(c.n))
		if pct != c.pct || val != c.val || ok != c.ok {
			t.Errorf("n=%d (%s): tail = p%v %v ok=%v, want p%v %v ok=%v", c.n, c.comment, pct, val, ok, c.pct, c.val, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > val {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which the
// acceptance rule for run-to-run spread is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// Self time is the span's duration minus the union of its children's
// intervals, each clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},  // overlaps a: union 1..6
		{Name: "c", Start: 9, End: 12, Parent: 0}, // clipped to 9..10
		{Name: "a1", Start: 1, End: 2, Parent: 1},
		{Name: "other", Start: 0, End: 10, Parent: -1}, // not a child of root
	}
	want := []float64{10 - 5 - 1, 3 - 1, 3, 3, 1, 10}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestConservation(t *testing.T) {
	ok := sessionCounters{Started: 10, Completed: 7, Evicted: 2, Active: 1, Refused: 5}
	if err := ok.conserved(); err != nil {
		t.Errorf("balanced counters rejected: %v", err)
	}
	for _, bad := range []sessionCounters{
		{Started: 10, Completed: 7, Evicted: 2},            // a session vanished
		{Started: 10, Completed: 9, Evicted: 1, Active: 1}, // one counted twice
	} {
		err := bad.conserved()
		if err == nil || !strings.Contains(err.Error(), "do not conserve") {
			t.Errorf("%+v: conserved() = %v, want a conservation error", bad, err)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestAccounted(t *testing.T) {
	ok := sessionCounters{Completed: 3, Profiled: 3 * 1000}
	if err := ok.accounted(1000); err != nil {
		t.Errorf("every access profiled, rejected: %v", err)
	}
	for _, bad := range []sessionCounters{
		{Completed: 3, Profiled: 3*1000 - 1}, // a record dropped
		{Completed: 3, Profiled: 3*1000 + 7}, // records duplicated
	} {
		if err := bad.accounted(1000); err == nil {
			t.Errorf("%+v: accounted(1000) passed", bad)
		}
	}
}
