package sig

import "math"

// AccuracyStats is a point-in-time accuracy picture of one tracked
// Signature: how full the write-slot array is, how many distinct addresses
// have been inserted (estimated with bounded memory), and the observed slot
// conflicts. It is the live counterpart of the offline Eq. (2) experiment
// (internal/exp Eq2): MeasuredFPR is exactly the quantity that experiment
// measures against the paper's prediction, now available per worker while a
// run is in flight.
type AccuracyStats struct {
	// Slots is the configured write-slot count m.
	Slots int
	// Occupied is the number of non-empty write slots.
	Occupied int
	// Distinct estimates the number of distinct addresses ever written
	// (linear-counting estimate; removal does not decrease it).
	Distinct float64
	// Probes counts LookupWrite calls; FalseHits the subset answered by a
	// slot a *different* address populated — live false positives.
	Probes    uint64
	FalseHits uint64
	// Evictions counts SetWrite calls that displaced a different address —
	// insert conflicts, each a future false negative for the evicted address.
	Evictions uint64
}

// MeasuredFPR returns the measured probability that a membership probe for
// an address never inserted reports present: the write-slot occupancy. This
// is the same "measured" definition the offline Eq. (2) experiment uses.
func (s AccuracyStats) MeasuredFPR() float64 {
	if s.Slots == 0 {
		return 0
	}
	return float64(s.Occupied) / float64(s.Slots)
}

// PredictedFPR returns the paper's Eq. (2) false-positive prediction,
// Pfp = 1 - (1 - 1/m)^n, evaluated with the tracked distinct-address
// estimate as n.
func (s AccuracyStats) PredictedFPR() float64 {
	if s.Slots == 0 {
		return 0
	}
	return 1 - math.Pow(1-1/float64(s.Slots), s.Distinct)
}

// sigTrack is the optional accuracy-tracking sidecar of a Signature. It
// shadows the write slots with one word-address tag per slot (so
// conflicts are detectable: a slot itself cannot tell which address
// populated it) and a linear-counting bitmap estimating distinct insertions.
// Memory cost: 8 bytes per slot for tags + 1 bit per slot for the bitmap —
// acceptable for profiling the profiler, and allocated only when tracking is
// enabled. Like the Signature itself it is single-owner state: each worker
// tracks its own store, so no atomics are needed.
type sigTrack struct {
	wtags    []uint64 // word address + 1 per write slot; 0 = empty
	occupied int

	bitmap    []uint64 // linear-counting bitmap, bmBits bits
	bmBits    uint64
	bmSet     uint64 // number of set bits
	probes    uint64
	falseHits uint64
	evictions uint64
}

// splitmix64 is the scrambling hash behind the distinct-address estimate —
// the slot hash itself is locality-preserving modulo and useless for
// cardinality estimation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// EnableTracking attaches accuracy tracking to the signature. Call before
// the first access; enabling mid-run undercounts everything inserted so far.
// The tag array is allocated for all m slots here: unlike the slots
// themselves it is not paged on first touch.
func (g *Signature) EnableTracking() {
	if g.trk != nil {
		return
	}
	bits := g.m // one bit per slot: load factor <= 1 at the Eq. (2) scales
	if bits < 64 {
		bits = 64
	}
	g.trk = &sigTrack{
		wtags:  make([]uint64, g.m),
		bitmap: make([]uint64, (bits+63)/64),
		bmBits: bits,
	}
}

// Tracking reports whether accuracy tracking is enabled.
func (g *Signature) Tracking() bool { return g.trk != nil }

// Accuracy returns the current accuracy statistics, and whether tracking is
// enabled at all.
func (g *Signature) Accuracy() (AccuracyStats, bool) {
	t := g.trk
	if t == nil {
		return AccuracyStats{}, false
	}
	return AccuracyStats{
		Slots:     int(g.m),
		Occupied:  t.occupied,
		Distinct:  t.distinct(),
		Probes:    t.probes,
		FalseHits: t.falseHits,
		Evictions: t.evictions,
	}, true
}

// distinct returns the linear-counting estimate n̂ = B·ln(B/z), z = unset
// bits. A saturated bitmap (z = 0) clamps z to 1: the estimate becomes a
// lower bound instead of infinity.
func (t *sigTrack) distinct() float64 {
	zero := t.bmBits - t.bmSet
	if zero == 0 {
		zero = 1
	}
	b := float64(t.bmBits)
	return b * math.Log(b/float64(zero))
}

// noteInsert records a write of word-address tag into slot i.
func (t *sigTrack) noteInsert(i uint64, tag uint64) {
	switch prev := t.wtags[i]; {
	case prev == 0:
		t.occupied++
	case prev != tag:
		t.evictions++
	}
	t.wtags[i] = tag
	bit := splitmix64(tag) % t.bmBits
	if w := &t.bitmap[bit/64]; *w&(1<<(bit%64)) == 0 {
		*w |= 1 << (bit % 64)
		t.bmSet++
	}
}

// noteLookup records a write-side membership probe for tag that found a
// populated slot (hit = true) or not.
func (t *sigTrack) noteLookup(i uint64, tag uint64, hit bool) {
	t.probes++
	if hit && t.wtags[i] != tag {
		t.falseHits++
	}
}

// noteRemove records that slot i was cleared.
func (t *sigTrack) noteRemove(i uint64) {
	if t.wtags[i] != 0 {
		t.wtags[i] = 0
		t.occupied--
	}
}
