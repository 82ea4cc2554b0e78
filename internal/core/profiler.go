package core

import (
	"ddprof/internal/dep"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"

	"ddprof/internal/event"

	// Every built-in store backend registers with the sig registry here, so
	// any Config.Backend spec resolves in any binary or daemon session.
	_ "ddprof/internal/hashtab"
	_ "ddprof/internal/shadow"
)

// Profiler is the uniform surface of all profiler variants: one ingest seam,
// AccessBatch, and Flush, which drains the pipeline and returns the merged
// result. Local runs reach it through event.ChunkHook, remote sessions with
// decoded trace batches. For the serial and parallel (sequential-target)
// profilers AccessBatch must be called from a single goroutine; the
// multi-threaded-target profiler accepts concurrent callers.
type Profiler interface {
	// AccessBatch ingests one batch in the event.Chunk layout: accesses
	// holds point slots plus RangeRef slots whose Addr indexes into ranges.
	// The slot kinds allowed are Read, Write, Remove, RangeRef and
	// EpochMark. An EpochMark slot cuts an epoch at exactly its position:
	// every worker extracts the delta of everything before it and hands it
	// to Config.OnEpochDelta, with the slot's Addr as the epoch number
	// (marks must be monotone). The profile is byte-identical to feeding the
	// expanded event sequence (each range as its Count elements in order)
	// one slot per batch.
	AccessBatch(accesses []event.Access, ranges []event.Range)
	Flush() *Result
}

// Result is the merged output of a profiling run.
type Result struct {
	// Deps is the merged dependence set.
	Deps *dep.Set
	// Loops maps static loops to their carried dependences.
	Loops map[prog.LoopID]*LoopDeps
	// Carried maps static loops to their merged carried-key tables — the
	// sets Loops summarizes. Live-observatory consumers query them ("what
	// does loop L carry") and extract the final unshipped delta remainder;
	// they share the merged storage, so Release them with the Result.
	Carried map[prog.LoopID]*dep.Set
	// Stats describes the run itself.
	Stats RunStats
	// WorkerEvents lists per-worker processed access counts (parallel
	// modes), the quantity the §IV-A load-balancing discussion is about.
	WorkerEvents []uint64
}

// RunStats reports pipeline counters and memory accounting.
type RunStats struct {
	// Accesses is the number of read/write events processed.
	Accesses uint64
	// Chunks is the number of data chunks pushed to workers (0 for serial).
	Chunks uint64
	// ControlChunks is the number of control-only chunk pushes
	// (migrate/install/flush sentinels); kept apart from Chunks so
	// events-per-chunk throughput math stays honest.
	ControlChunks uint64
	// DupCollapsed is the number of consecutive duplicate reads collapsed
	// into repetition counts — by the producer before chunking (sequential
	// targets) or by the consumer while draining its ring (MT targets). The
	// collapsed accesses still count in Accesses and in every dependence
	// count.
	DupCollapsed uint64
	// DepCacheHits / DepCacheProbes report the engines' instance-cache
	// performance: a hit records a dependence instance without any map
	// operation.
	DepCacheHits   uint64
	DepCacheProbes uint64
	// Migrations is the number of address redistributions performed.
	Migrations uint64
	// Redistributions is the number of rebalance rounds that moved at
	// least one address.
	Redistributions uint64
	// Ranges is the number of compressed strided runs emitted by the
	// producer's SD3 stride detection (or ingested pre-compressed from a
	// trace); RangeElements the accesses they stand for. Both are zero with
	// Config.NoStrideCompression set. Range elements still count in Accesses
	// and in every dependence count.
	Ranges        uint64
	RangeElements uint64
	// StoreBytes is the actual memory held by all access-history stores.
	StoreBytes uint64
	// StoreModeledBytes is the same under the paper's 4 B/slot model.
	StoreModeledBytes uint64
	// QueueBytes is the memory held by the pipeline queues and chunks.
	QueueBytes uint64
}

// Config configures a profiler. The zero value describes a serial profiler
// with default store sizing; Mode (or a typed constructor) selects the
// variant and the remaining fields compose the pipeline stages.
type Config struct {
	// Mode selects the profiler variant when constructing through New.
	// The typed constructors (NewSerial, NewParallel, NewMT, NewExistence)
	// set it themselves.
	Mode Mode
	// Workers is the number of profiling worker threads (parallel modes).
	Workers int
	// SlotsPerWorker is the signature size each worker uses. The paper's
	// reference configuration is 6.25e6 slots per worker × 16 workers =
	// 1e8 slots total (§VI-B2).
	SlotsPerWorker int
	// Backend selects the access-history store by spec string, resolved
	// through the sig backend registry: "signature", "perfect", "shadow",
	// "hashtab", "hybrid:slots=1m,exact=4096", ... Empty selects the default
	// signature backend; SlotsPerWorker sizes slot parameters the spec
	// leaves out. A bad spec fails construction with a descriptive error.
	Backend string
	// Meta enables loop-carried classification when non-nil.
	Meta *prog.Meta
	// LockBased selects mutex-protected queues instead of lock-free ones
	// (the Figure 5 ablation baseline).
	LockBased bool
	// RaceCheck enables timestamp-reversal detection (§V-B).
	RaceCheck bool
	// QueueCap is the per-worker queue capacity in chunks (sequential-target
	// mode) or accesses (MT mode). Defaults to 64 chunks / 4Ki accesses.
	QueueCap int
	// RedistributeEvery triggers a load-balance check every N chunks
	// (paper: 50,000); in MT mode, every N×ChunkSize accesses, keeping the
	// cadence comparable across modes. 0 disables redistribution.
	RedistributeEvery int
	// Metrics, when non-nil, receives live pipeline telemetry (events in,
	// queue depths, chunk recycling, redistributions, signature occupancy,
	// stage latency histograms). Counters are bumped at chunk granularity so
	// the hot path stays cheap, and stage latencies are timed for one in
	// sampleEvery chunks; nil costs nothing.
	Metrics *telemetry.Pipeline
	// NoStrideCompression disables SD3 range compression in the chunked
	// parallel producer (rangecomp.go) — the A/B switch of the stride
	// ingestion work. Profiles are byte-identical either way over exact
	// stores (the golden fixtures and the equivalence suite hold both paths
	// to that); over the approximate Signature the two paths may resolve
	// hash-slot collisions between distinct addresses differently, the error
	// class Eq. (2) already models. No effect on serial/MT/existence modes,
	// which never compress.
	NoStrideCompression bool
	// TrackAccuracy enables live Eq. (2) accuracy telemetry on workers whose
	// store is a sig.Signature: slot-conflict counters plus measured vs
	// predicted false-positive gauges per worker (sig_fpr_measured_ppm /
	// sig_fpr_predicted_ppm). Costs ~8 bytes/slot of tracking state and one
	// branch per store operation; off by default.
	TrackAccuracy bool
	// OnEpochDelta receives each worker's epoch-delta extraction at every
	// EpochMark slot fed through AccessBatch. Callbacks arrive on worker
	// goroutines — concurrently in parallel modes — and own the delta's
	// sets. Nil disables extraction: EpochMark slots become no-ops and the
	// epoch machinery costs nothing.
	OnEpochDelta func(*EpochDelta)
	// TrackBounds enables per-variable address-interval tracking in every
	// engine (two compares per data access), feeding the address-range
	// provenance query and EpochDelta.Bounds. Off by default.
	TrackBounds bool
}

// store builds one worker store from the Backend spec.
func (c *Config) store() (sig.Store, error) {
	st, err := sig.OpenStore(c.Backend, c.SlotsPerWorker)
	if err != nil {
		return nil, err
	}
	if c.TrackAccuracy {
		// Only stores with an approximate component have an accuracy question
		// to answer (the signature, the hybrid via its tail); exact stores
		// pass through.
		if t, ok := st.(sig.Tracker); ok {
			t.EnableTracking()
		}
	}
	return st, nil
}

// Serial is the single-threaded profiler of §III: the target program and
// Algorithm 1 run on the same thread. As a pipeline composition it is the
// degenerate case — one worker, no transport (AccessBatch runs the worker's
// batch loop inline), and the shared merge stage producing the Result.
type Serial struct {
	pl pipeline
}

// NewSerial returns a serial profiler; it panics on an invalid Config (use
// New for an error return). In serial mode the whole signature budget
// (Workers×SlotsPerWorker if both set, else SlotsPerWorker) backs a single
// store.
func NewSerial(cfg Config) *Serial {
	s, err := newSerial(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func newSerial(cfg Config) (*Serial, error) {
	cfg, err := cfg.normalize(ModeSerial)
	if err != nil {
		return nil, err
	}
	if cfg.SlotsPerWorker > 0 && cfg.Workers > 1 {
		// The whole per-worker slot budget backs the single serial store. A
		// spec with an explicit slots parameter is unaffected: explicit
		// parameters win over the SlotsPerWorker default.
		cfg.SlotsPerWorker *= cfg.Workers
	}
	stores, err := makeStores(&cfg, 1)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(stores[0], cfg.Meta, cfg.RaceCheck)
	if cfg.TrackBounds {
		eng.EnableBoundsTracking()
	}
	s := &Serial{}
	s.pl.m = cfg.Metrics
	// The worker counts what it processes (there is no producer to count
	// for it) and publishes the counts after every batch.
	s.pl.workers = []*worker{{eng: eng, m: cfg.Metrics, onDelta: cfg.OnEpochDelta, countEvents: true}}
	return s, nil
}

// AccessBatch implements Profiler: the batch runs through the same
// worker.process loop the pipeline workers run, inline on the caller's
// goroutine, with telemetry published once per batch.
func (s *Serial) AccessBatch(accesses []event.Access, ranges []event.Range) {
	w := s.pl.workers[0]
	w.process(accesses, ranges)
	if w.m != nil {
		w.publishCounts()
	}
}

// Flush implements Profiler.
func (s *Serial) Flush() *Result {
	s.pl.beginFlush()
	return s.pl.merge(RunStats{}, 0, true)
}

// publishStoreTelemetry records the flush-time store gauges: the mean
// write-slot occupancy of stores that can report one (the signature, the
// hybrid's tail), the summed actual footprint of every store regardless of
// backend (satisfying /metrics for shadow page accounting as much as for
// signature pages), and — for two-tier stores — the per-tier split plus the
// exact-resident census.
func publishStoreTelemetry(m *telemetry.Pipeline, stores ...sig.Store) {
	sum, n := 0.0, 0
	var bytes, exactBytes, tailBytes uint64
	resident, tiered := 0, false
	for _, st := range stores {
		if o, ok := st.(interface{ Occupancy() float64 }); ok {
			sum += o.Occupancy()
			n++
		}
		bytes += st.Bytes()
		if t, ok := st.(sig.Tiered); ok {
			e, tl := t.TierBytes()
			exactBytes += e
			tailBytes += tl
			resident += t.ExactResident()
			tiered = true
		}
	}
	if n > 0 {
		m.SigOccupancyPermille.Set(int64(sum / float64(n) * 1000))
	}
	m.StoreBytes.Set(int64(bytes))
	if tiered {
		m.StoreExactBytes.Set(int64(exactBytes))
		m.StoreTailBytes.Set(int64(tailBytes))
		m.StoreExactResident.Set(int64(resident))
	}
}
