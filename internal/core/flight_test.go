package core

// Flight-recorder coverage: stage latency histograms, consumer-side MT event
// accounting, publication watermarks (no double counting between in-flight
// and merge-time publication), and the live Eq. (2) accuracy path.

import (
	"strings"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
)

func TestParallelStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	p := NewParallel(Config{Workers: 2, Backend: "perfect", Metrics: pipe})
	// Enough chunks that each worker times at least one in sampleEvery
	// batches.
	p.AccessBatch(synthStream(400000, 500, 7), nil)
	p.Flush()
	if pipe.StageProduceNs.Count() == 0 {
		t.Error("no producer-stage samples recorded")
	}
	if pipe.StageWorkerNs.Count() == 0 {
		t.Error("no worker-stage samples recorded")
	}
	if got := pipe.StageMergeNs.Count(); got != 1 {
		t.Errorf("merge-stage samples = %d, want exactly 1", got)
	}
	// Quantiles of a populated histogram are positive durations.
	if q := pipe.StageWorkerNs.Quantile(0.5); q <= 0 {
		t.Errorf("worker-stage p50 = %v, want > 0", q)
	}
	// The histograms surface on the exposition page.
	var sb strings.Builder
	reg.WriteText(&sb)
	for _, want := range []string{
		"t_stage_produce_ns_p99 ",
		"t_stage_worker_ns_p50 ",
		"t_stage_merge_ns_count 1",
		"t_stage_transport_wait_ns_count ",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMTConsumerSideEventCount: events_total is counted by the consumers at
// batch granularity, and a collapsed read still counts its full multiplicity
// — the logical access count, same as Stats.Accesses.
func TestMTConsumerSideEventCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	const reads = 10000
	m := NewMT(Config{Workers: 2, SlotsPerWorker: 1 << 10, Metrics: pipe})
	m.Access(event.Access{Addr: 0x800, Kind: event.Write, Loc: loc.Pack(1, 1)})
	for i := 0; i < reads; i++ {
		// Identical untimestamped reads: the consumer collapses them, but the
		// logical count must be preserved.
		m.Access(event.Access{Addr: 0x800, Kind: event.Read, Loc: loc.Pack(1, 2)})
	}
	res := m.Flush()
	if got := pipe.Events.Load(); got != reads+1 {
		t.Errorf("events_total = %d, want %d", got, reads+1)
	}
	if res.Stats.Accesses != reads+1 {
		t.Errorf("Stats.Accesses = %d, want %d", res.Stats.Accesses, reads+1)
	}
	if res.Stats.DupCollapsed == 0 {
		t.Error("expected consumer-side collapse on an all-duplicate stream")
	}
}

// TestDepCacheNoDoubleCount: workers publish dep-cache deltas while running
// and the merge publishes the remainder; the counter must equal the
// merged stats exactly, not twice them.
func TestDepCacheNoDoubleCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	p := NewParallel(Config{Workers: 2, SlotsPerWorker: 1 << 12, Metrics: pipe})
	p.AccessBatch(synthStream(400000, 50, 11), nil)
	res := p.Flush()
	if res.Stats.DepCacheProbes == 0 {
		t.Fatal("stream produced no dep-cache probes; test needs a hotter stream")
	}
	if got := pipe.DepCacheHits.Load(); got != res.Stats.DepCacheHits {
		t.Errorf("dep_cache_hits_total = %d, want %d (Stats)", got, res.Stats.DepCacheHits)
	}
	if got := pipe.DepCacheProbes.Load(); got != res.Stats.DepCacheProbes {
		t.Errorf("dep_cache_probes_total = %d, want %d (Stats)", got, res.Stats.DepCacheProbes)
	}
}

// TestTrackAccuracyTelemetry: with TrackAccuracy on, the default signature
// store reports live measured/predicted FPR gauges and conflict counters
// through the merge-time publication.
func TestTrackAccuracyTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	s := NewSerial(Config{SlotsPerWorker: 1 << 12, TrackAccuracy: true, Metrics: pipe})
	for i := 0; i < 600; i++ {
		put(s, event.Access{Addr: uint64(0x1000 + 8*i), Kind: event.Write, Loc: loc.Pack(1, 1)})
	}
	s.Flush()
	meas := pipe.SigFPRMeasuredPPM[0].Load()
	pred := pipe.SigFPRPredictedPPM[0].Load()
	if meas == 0 || pred == 0 {
		t.Fatalf("accuracy gauges not published: measured=%d predicted=%d", meas, pred)
	}
	// 600 distinct words into 4096 slots: measured occupancy ~146k ppm. At
	// this load factor the collision-free modulo occupancy and the uniform-
	// hash Eq. (2) prediction agree to ~1 point (they diverge as n/m grows).
	if meas < 120000 || meas > 170000 {
		t.Errorf("measured FPR = %d ppm, want ~146k", meas)
	}
	if diff := meas - pred; diff < -25000 || diff > 25000 {
		t.Errorf("measured %d vs predicted %d ppm differ too much", meas, pred)
	}
}

// TestTrackAccuracyConflicts: a store much smaller than the footprint must
// surface insert conflicts (evictions) on the conflict counter.
func TestTrackAccuracyConflicts(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	s := NewSerial(Config{SlotsPerWorker: 64, TrackAccuracy: true, Metrics: pipe})
	for i := 0; i < 1000; i++ {
		put(s, event.Access{Addr: uint64(0x1000 + 8*i), Kind: event.Write, Loc: loc.Pack(1, 1)})
	}
	s.Flush()
	if pipe.SigInsertConflicts.Load() == 0 {
		t.Error("no insert conflicts recorded on an overloaded signature")
	}
}

// TestTrackAccuracyExactStoreUnaffected: exact stores have no FPR question;
// TrackAccuracy must be a no-op for them.
func TestTrackAccuracyExactStoreUnaffected(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	s := NewSerial(Config{Backend: "perfect", TrackAccuracy: true, Metrics: pipe})
	put(s, event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1)})
	s.Flush()
	if pipe.SigFPRMeasuredPPM[0].Load() != 0 {
		t.Error("accuracy gauge published for an exact store")
	}
}

// TestEventsEqualAccesses: events_total counts the logical accesses a
// pipeline ingests, so after Flush it equals Stats.Accesses — and the
// stream's true access count — in every mode and through every ingest shape:
// repeated reads the filters collapse, pre-collapsed Rep>0 points, ranges the
// producer splits or re-compresses, and Remove records, which count nothing.
func TestEventsEqualAccesses(t *testing.T) {
	x, y := uint64(0x8000), uint64(0x8008)
	rd := func(addr uint64, line int) event.Access {
		return event.Access{Addr: addr, Kind: event.Read, Loc: loc.Pack(1, line)}
	}
	wr := func(addr uint64, line int) event.Access {
		return event.Access{Addr: addr, Kind: event.Write, Loc: loc.Pack(1, line)}
	}
	// An input is one or more batches, each fed through AccessBatch.
	type batch struct {
		evs    []event.Access
		ranges []event.Range
	}
	var perEvent []batch
	perEvent = append(perEvent, batch{evs: []event.Access{wr(x, 1)}})
	for i := 0; i < 5000; i++ {
		perEvent = append(perEvent, batch{evs: []event.Access{rd(x, 2)}}) // collapsed by the filters
	}
	for i := 0; i < 5000; i++ {
		perEvent = append(perEvent, batch{evs: []event.Access{wr(0x10000+8*uint64(i), 3)}}) // strided
	}
	rep := func(a event.Access, n uint16) event.Access { a.Rep = n; return a }
	var repBatch []event.Access
	for i := 0; i < 3000; i++ {
		a := 0x20000 + 8*uint64(i%64)
		repBatch = append(repBatch, wr(a, 4), rep(rd(a, 5), 7), rep(rd(y, 6), 2))
	}
	strided := event.Range{Base: 0x40000, Stride: 8, Count: 20000, Kind: event.Read, Loc: loc.Pack(1, 7)}
	short := event.Range{Base: 0x90000, Stride: 24, Count: 3, Kind: event.Write, Loc: loc.Pack(1, 8)}
	ranges := []batch{{
		evs:    []event.Access{wr(x, 9), {Kind: event.RangeRef, Addr: 0}, rd(x, 10), {Kind: event.RangeRef, Addr: 1}},
		ranges: []event.Range{strided, short},
	}}
	var removes []batch
	for i := 0; i < 4000; i++ {
		a := 0x50000 + 8*uint64(i%100)
		removes = append(removes, batch{evs: []event.Access{wr(a, 11), rd(a, 12), {Addr: a, Kind: event.Remove}}})
	}
	inputs := []struct {
		name    string
		batches []batch
	}{
		{"per-event", perEvent},
		{"rep-batch", []batch{{evs: repBatch}}},
		{"ranges", ranges},
		{"removes", removes},
	}
	logical := func(bs []batch) uint64 {
		var n uint64
		for _, b := range bs {
			for _, a := range b.evs {
				switch a.Kind {
				case event.Read, event.Write:
					n += 1 + uint64(a.Rep)
				case event.RangeRef:
					n += uint64(b.ranges[a.Addr].Count)
				}
			}
		}
		return n
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Mode: ModeSerial}},
		{"parallel", Config{Mode: ModeParallel, Workers: 2}},
		{"parallel-nostride", Config{Mode: ModeParallel, Workers: 2, NoStrideCompression: true}},
		{"mt", Config{Mode: ModeMT, Workers: 2}},
	}
	for _, in := range inputs {
		want := logical(in.batches)
		for _, md := range modes {
			pipe := telemetry.NewRegistry().Pipeline("t")
			cfg := md.cfg
			cfg.Backend, cfg.Metrics = "perfect", pipe
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range in.batches {
				p.AccessBatch(b.evs, b.ranges)
			}
			res := p.Flush()
			if res.Stats.Accesses != want {
				t.Errorf("%s/%s: Stats.Accesses = %d, want %d", in.name, md.name, res.Stats.Accesses, want)
			}
			if got := pipe.Events.Load(); got != res.Stats.Accesses {
				t.Errorf("%s/%s: events_total = %d, Stats.Accesses = %d", in.name, md.name, got, res.Stats.Accesses)
			}
		}
	}
}
