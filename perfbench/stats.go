package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tail reports the highest ladder percentile that still has at least
// minBeyond samples beyond it, by the nearest-rank rule: the p-th percentile
// of n samples is the k-th smallest with k = ceil(p/100 * n), and n-k
// samples lie beyond it. ok is false when not even the median has minBeyond
// samples beyond it (fewer than 20 samples); the value is then the maximum.
func tail(xs []float64) (pct, val float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 100, math.NaN(), false
	}
	for _, p := range tailLadder {
		k := nearestRank(p, n)
		if n-k >= minBeyond {
			return p, s[k-1], true
		}
	}
	return 100, s[n-1], false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	// Round before the ceiling so 90% of 100 is rank 90, not 91 through
	// floating-point noise.
	k := int(math.Ceil(math.Round(p/100*float64(n)*1e9) / 1e9))
	return max(1, min(k, n))
}

// quartiles returns the first and third quartile of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which the acceptance rule for run-to-run spread uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1, for quantile i
		// of 4, j = i*m // 4, delta = i*m - j*4, result interpolates
		// s[j-1] .. s[j] by delta/4.
		m := n + 1
		jj := j * m / 4
		delta := j*m - jj*4
		lo := clampIndex(jj-1, n)
		hi := clampIndex(jj, n)
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func clampIndex(i, n int) int { return max(0, min(i, n-1)) }

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// span is one traced interval: name, start and end (seconds on the run's
// clock) and the index of the span that caused it (-1 for a root).
type span struct {
	Name   string
	Start  float64
	End    float64
	Parent int
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its child spans. Overlapping children are counted
// once, and a child's coverage is clipped to the parent's interval.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := 0.0, math.Inf(-1)
		for _, v := range ivs {
			if v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// sessionCounters are the daemon's lifecycle counters at one instant.
type sessionCounters struct {
	Started, Completed, Evicted, Active, Refused uint64
	// Profiled is the accesses the daemon's session pipelines consumed:
	// events plus the duplicate reads collapsed into repetition counts.
	Profiled uint64
}

// conserved checks the daemon's session conservation law,
// started = completed + evicted + active.
func (c sessionCounters) conserved() error {
	if c.Started != c.Completed+c.Evicted+c.Active {
		return fmt.Errorf("session counters do not conserve: started %d != completed %d + evicted %d + active %d",
			c.Started, c.Completed, c.Evicted, c.Active)
	}
	return nil
}

// accounted checks that the daemon profiled every access of every completed
// session, no more and no fewer: all sessions of a run stream the same
// target, whose bare-VM run counts accesses.
func (c sessionCounters) accounted(accesses uint64) error {
	if want := c.Completed * accesses; c.Profiled != want {
		return fmt.Errorf("daemon profiled %d accesses over %d sessions, want %d (%d per session)",
			c.Profiled, c.Completed, want, accesses)
	}
	return nil
}
