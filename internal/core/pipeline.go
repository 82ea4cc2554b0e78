package core

// The composable pipeline layer. The paper's architecture (§IV–V) is one
// pipeline with pluggable pieces, and this file is that decomposition:
//
//	target thread(s)
//	      │ AccessBatch() (event.ChunkHook, decoded traces); MT: Access()
//	┌─────▼──────┐  routing (owner mask / redirect map / round-robin),
//	│  producer  │  duplicate-read collapse, Misra–Gries sketch,
//	└─────┬──────┘  migrate/install rebalance protocol, epoch marks
//	      │ chunks (SPSC / Locked) or single accesses (MPSC)
//	┌─────▼──────┐
//	│ transport  │  one push/pop/recycle contract over all queue kinds
//	└─────┬──────┘
//	      │ event batches
//	┌─────▼──────┐  uniform control handling (flush/migrate/install/hold),
//	│   worker   │  shared backoff policy, Engine or line-pair sink
//	└─────┬──────┘
//	      │ engines, counters
//	┌─────▼──────┐  dep-set merge, loop-agg union, store/queue/cache
//	│   merge    │  accounting, occupancy + queue-depth publication
//	└────────────┘
//
// Serial, Parallel, MT and Existence are thin compositions of these stages
// (Serial has no producer or transport: its AccessBatch runs the worker's
// batch loop inline);
// their profiles are byte-identical to the pre-refactor implementations
// (held to that by the golden fixtures in testdata/goldens.json).

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/queue"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// Mode selects the profiler variant a Config describes.
type Mode uint8

const (
	// ModeSerial is the single-threaded profiler of §III.
	ModeSerial Mode = iota
	// ModeParallel is the chunked lock-free pipeline of §IV for sequential
	// targets (Config.LockBased selects the Figure 5 ablation queues).
	ModeParallel
	// ModeMT is the per-access pipeline of §V for multi-threaded targets.
	ModeMT
	// ModeExistence is the untyped line-pair pipeline of §VI-B. Its result
	// type differs, so it is built with NewExistence rather than New.
	ModeExistence
)

func (m Mode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeParallel:
		return "parallel"
	case ModeMT:
		return "mt"
	case ModeExistence:
		return "existence"
	}
	return "invalid"
}

// New builds the profiler variant selected by cfg.Mode and validates the
// configuration in one place. Every embedder — the ddprof facade, ddprofd
// sessions, the experiment drivers — can construct through here; the typed
// constructors (NewSerial, NewParallel, NewMT) wrap it and panic on the same
// descriptive errors for callers that treat a bad Config as a bug.
func New(cfg Config) (Profiler, error) {
	switch cfg.Mode {
	case ModeSerial:
		return newSerial(cfg)
	case ModeParallel:
		return newParallel(cfg)
	case ModeMT:
		return newMT(cfg)
	case ModeExistence:
		return nil, errors.New("core: existence mode produces untyped line pairs, not a *Result; build it with NewExistence")
	default:
		return nil, fmt.Errorf("core: unknown Mode %d", cfg.Mode)
	}
}

// normalize validates a Config and fills in the mode's defaults. All
// constructor paths funnel through here, so a bad configuration fails the
// same way everywhere.
func (c Config) normalize(mode Mode) (Config, error) {
	c.Mode = mode
	if c.Workers < 0 {
		return c, fmt.Errorf("core: Workers = %d; want >= 1, or 0 for the default", c.Workers)
	}
	if c.Workers == 0 {
		switch mode {
		case ModeSerial:
			c.Workers = 1
		case ModeExistence:
			c.Workers = 8
		default:
			c.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if c.QueueCap < 0 {
		return c, fmt.Errorf("core: QueueCap = %d; want >= 1 chunks (accesses in MT mode), or 0 for the default", c.QueueCap)
	}
	if c.QueueCap == 0 {
		if mode == ModeMT {
			// Default ring depth: 4Ki events (256KiB of cells) per worker.
			// Deeper rings only add slack the consumer never catches up on,
			// and at 64Ki cells the ring outgrows the cache entirely; keeping
			// the cells cache-resident is worth more than extra buffering. It
			// also trims the MT queue memory the paper calls out in Figure 8.
			c.QueueCap = 1 << 12
		} else {
			c.QueueCap = 64
		}
	}
	if c.SlotsPerWorker < 0 {
		return c, fmt.Errorf("core: SlotsPerWorker = %d; want >= 1 signature slots, or 0 for the default", c.SlotsPerWorker)
	}
	if c.RedistributeEvery < 0 {
		return c, fmt.Errorf("core: RedistributeEvery = %d; want >= 1 chunks, or 0 to disable redistribution", c.RedistributeEvery)
	}
	return c, nil
}

// makeStores builds one store per worker through the backend registry. The
// stores are built here (not lazily) so a bad Config.Backend spec fails
// construction with a descriptive error instead of a nil dereference on the
// hot path.
func makeStores(cfg *Config, n int) ([]sig.Store, error) {
	out := make([]sig.Store, n)
	for i := range out {
		st, err := cfg.store()
		if err != nil {
			return nil, fmt.Errorf("core: Config.Backend: %w", err)
		}
		out[i] = st
	}
	return out, nil
}

// errDoubleFlush is the one message every mode's second Flush panics with.
const errDoubleFlush = "core: Flush called twice (a pipeline drains and joins its workers exactly once)"

// chunkQueue is the queue surface chunked transports need; satisfied by both
// the lock-free queue.SPSC and the lock-based queue.Locked, which is how the
// Figure 5 lock-based/lock-free ablation swaps implementations.
type chunkQueue interface {
	TryPush(*event.Chunk) bool
	TryPop() (*event.Chunk, bool)
	Push(*event.Chunk)
	Len() int
	Cap() int
}

// transport carries events from the producer stage to one worker. Two
// granularities exist behind the one contract: chunked (sequential targets,
// existence mode) and per-access (multi-threaded targets).
type transport interface {
	// pushChunk enqueues a full chunk (chunked transports only).
	pushChunk(c *event.Chunk)
	// pushAccess enqueues one access; safe for concurrent producers on
	// per-access transports.
	pushAccess(a event.Access)
	// takeChunk returns a recycled chunk if one is available.
	takeChunk() (*event.Chunk, bool)
	// pop returns the next batch of events to process, the range side table
	// RangeRef slots in the batch index into (nil for per-access transports,
	// which never carry ranges), and the chunk to recycle after processing
	// (nil for per-access transports).
	pop() ([]event.Access, []event.Range, *event.Chunk, bool)
	// recycle returns a drained chunk to the producer.
	recycle(c *event.Chunk)
	// depth is the producer-observable queue depth, in push units.
	depth() int
	// memBytes is the fixed ring memory, for Figure 8 accounting. Chunk
	// memory is accounted by the producer (chunks travel between rings).
	memBytes() uint64
	// observedMaxDepth is the consumer-side depth high-water mark, or -1
	// when the producer already reports depths at push time.
	observedMaxDepth() int64
}

// chunkTransport pairs a worker's inbound chunk queue with its recycle ring.
type chunkTransport struct {
	in  chunkQueue
	rec *queue.SPSC[*event.Chunk]
}

func newChunkTransport(lockBased bool, qcap int) *chunkTransport {
	var in chunkQueue
	if lockBased {
		in = queue.NewLocked[*event.Chunk](qcap)
	} else {
		in = queue.NewSPSC[*event.Chunk](qcap)
	}
	return &chunkTransport{in: in, rec: queue.NewSPSC[*event.Chunk](qcap)}
}

func (t *chunkTransport) pushChunk(c *event.Chunk) { t.in.Push(c) }

func (t *chunkTransport) pushAccess(event.Access) {
	panic("core: chunked transport cannot push single accesses")
}

func (t *chunkTransport) takeChunk() (*event.Chunk, bool) { return t.rec.TryPop() }

func (t *chunkTransport) pop() ([]event.Access, []event.Range, *event.Chunk, bool) {
	c, ok := t.in.TryPop()
	if !ok {
		return nil, nil, nil, false
	}
	return c.Events, c.Ranges, c, true
}

func (t *chunkTransport) recycle(c *event.Chunk) {
	c.Reset()
	t.rec.TryPush(c) // if the recycle ring is full, let GC take it
}

func (t *chunkTransport) depth() int { return t.in.Len() }

// memBytes reports the pointer cells of the inbound and recycle rings. The
// chunks themselves are excluded on purpose: they travel between the rings
// and the producer's open set, and the producer already accounts them as
// allocatedChunks × chunkBytes — counting them here would double-book them.
func (t *chunkTransport) memBytes() uint64 {
	return uint64(t.in.Cap()+t.rec.Cap()) * 8
}

func (t *chunkTransport) observedMaxDepth() int64 { return -1 }

// accessBatch is how many events one accessTransport.pop drains at most:
// large enough to amortize the per-batch bookkeeping, small enough to keep
// control events (flush, migrate) responsive.
const accessBatch = 256

// mpscCellBytes is the per-element ring cost used for Figure 8 accounting:
// a 48-byte access padded with its sequence word to one cache line.
const mpscCellBytes = 64

// accessTransport is the per-access MPSC transport of MT mode. The consumer
// side drains into a reusable batch buffer and — because only the consumer
// touches the batch — can collapse consecutive identical reads there, giving
// MT mode the duplicate filter the chunked producer applies at append time.
type accessTransport struct {
	in *queue.MPSC[event.Access]
	// consumer-owned; read by the merge stage after the flush barrier.
	batch     []event.Access
	collapsed uint64
	maxDepth  int64
}

func newAccessTransport(qcap int) *accessTransport {
	return &accessTransport{
		in:    queue.NewMPSC[event.Access](qcap),
		batch: make([]event.Access, 0, accessBatch),
	}
}

func (t *accessTransport) pushChunk(*event.Chunk) {
	panic("core: per-access transport cannot push chunks")
}

func (t *accessTransport) pushAccess(a event.Access) { t.in.Push(a) }

func (t *accessTransport) takeChunk() (*event.Chunk, bool) { return nil, false }

func (t *accessTransport) pop() ([]event.Access, []event.Range, *event.Chunk, bool) {
	b := t.batch[:0]
	for len(b) < accessBatch {
		a, ok := t.in.TryPop()
		if !ok {
			break
		}
		if a.Kind == event.Read && len(b) > 0 {
			// Collapse a read identical to the previous batched event into
			// its repetition count. Equality covers the timestamp, so with
			// real MT timestamps the filter never merges distinct accesses;
			// on untimestamped streams it recovers the chunked producer's
			// exact collapse (the engine replays the multiplicity).
			last := &b[len(b)-1]
			if last.Kind == event.Read && uint32(last.Rep)+1+uint32(a.Rep) <= uint32(event.MaxRep) {
				cmp, prev := a, *last
				cmp.Rep, prev.Rep = 0, 0
				if cmp == prev {
					last.Rep += 1 + a.Rep
					t.collapsed++
					continue
				}
			}
		}
		b = append(b, a)
	}
	t.batch = b
	if len(b) == 0 {
		return nil, nil, nil, false
	}
	// Depth observation for the merge stage's queue-depth gauges: what was
	// drained plus what is still queued (Len is consumer-safe on MPSC).
	if d := int64(len(b)) + int64(t.in.Len()); d > t.maxDepth {
		t.maxDepth = d
	}
	return b, nil, nil, true
}

func (t *accessTransport) recycle(*event.Chunk) {}

func (t *accessTransport) depth() int              { return t.in.Len() }
func (t *accessTransport) memBytes() uint64        { return uint64(mpscCellBytes * t.in.Cap()) }
func (t *accessTransport) observedMaxDepth() int64 { return t.maxDepth }

// migState is the signature state of one address in flight between workers
// during redistribution.
type migState struct {
	addr        uint64
	write, read sig.Slot
	wok, rok    bool
}

// worker is one consumer of the pipeline: a transport feeding either a
// detection Engine (typed modes) or an existence line-pair sink.
type worker struct {
	id  int
	tr  transport
	eng *Engine    // typed modes
	ex  *existSink // existence mode (eng == nil)
	// events counts the logical read/write accesses processed (a collapsed
	// read stands for 1+Rep of them) — the §IV-A load-balance quantity.
	// ranges and rangeElems count the RangeRef slots processed and the
	// accesses they stand for.
	events, ranges, rangeElems uint64
	// held buffers accesses to addresses whose signature state is in flight
	// to this worker (MT redistribution; see event.Hold).
	held map[uint64][]event.Access
	// onDelta receives this worker's epoch-delta extraction at each
	// EpochMark; nil disables extraction entirely (the mark is then a no-op).
	// Called on the worker goroutine at a batch boundary.
	onDelta func(*EpochDelta)

	// migration mailboxes (producer/rebalancer <-> this worker)
	migOut    atomic.Pointer[migState] // worker publishes state out
	installIn atomic.Pointer[migState] // state published to worker

	// flight-recorder state, all worker-local. m is the telemetry sink (nil
	// disables everything). One in sampleEvery batches is timed
	// (StageWorkerNs), as is the wait of one in sampleEvery idle episodes
	// (StageTransportWaitNs). countEvents selects consumer-side
	// events_total and range accounting (serial mode, which has no producer,
	// and MT mode, whose concurrent producers must not share an atomic
	// counter): one Add per batch instead of one per access. The pub* fields
	// are publication watermarks so periodic in-flight publication and the
	// final merge-time publication add disjoint deltas to the same counters.
	m             *telemetry.Pipeline
	countEvents   bool
	batches       uint64
	waits         uint64
	pubEvents     uint64
	pubRanges     uint64
	pubRangeElems uint64
	pubHits       uint64
	pubProbes     uint64
	pubEvict      uint64
	pubFalse      uint64
}

// accuracyStore is implemented by stores that track live Eq. (2) accuracy
// (sig.Signature with tracking enabled).
type accuracyStore interface {
	Accuracy() (sig.AccuracyStats, bool)
}

// sampleEvery is the stage-latency sampling rate: one in sampleEvery chunk
// pushes, worker batches and idle episodes is timed into the Metrics
// histograms. Sampling (rather than timing every chunk) is what keeps the
// flight recorder inside the bench gate's throughput budget.
const sampleEvery = 32

// telemetryPublishEvery is the worker-batch cadence of in-flight telemetry
// publication (dep-cache counters, live accuracy): frequent enough that
// /metrics and the Snapshotter see a moving picture, rare enough to be free.
const telemetryPublishEvery = 1024

// publishTelemetry pushes this worker's counter deltas and accuracy gauges
// to the telemetry sink. Called from the worker loop periodically and from
// the merge stage after the flush barrier; the watermarks make the two
// publication paths add up exactly once.
func (w *worker) publishTelemetry() {
	if w.m == nil {
		return
	}
	if w.countEvents {
		w.publishCounts()
	}
	if w.eng == nil {
		return
	}
	hits, probes := w.eng.CacheStats()
	if d := hits - w.pubHits; d > 0 {
		w.m.DepCacheHits.Add(d)
	}
	if d := probes - w.pubProbes; d > 0 {
		w.m.DepCacheProbes.Add(d)
	}
	w.pubHits, w.pubProbes = hits, probes
	if acc, ok := w.eng.Store().(accuracyStore); ok {
		if st, on := acc.Accuracy(); on {
			w.m.ObserveSigFPR(w.id, st.MeasuredFPR(), st.PredictedFPR())
			if d := st.Evictions - w.pubEvict; d > 0 {
				w.m.SigInsertConflicts.Add(d)
			}
			if d := st.FalseHits - w.pubFalse; d > 0 {
				w.m.SigLookupConflicts.Add(d)
			}
			w.pubEvict, w.pubFalse = st.Evictions, st.FalseHits
		}
	}
}

// publishCounts adds the consumer-side counts not yet published (countEvents
// workers only).
func (w *worker) publishCounts() {
	if d := w.events - w.pubEvents; d > 0 {
		w.m.Events.Add(d)
		w.pubEvents = w.events
	}
	if d := w.ranges - w.pubRanges; d > 0 {
		w.m.Ranges.Add(d)
		w.m.RangeElements.Add(w.rangeElems - w.pubRangeElems)
		w.pubRanges, w.pubRangeElems = w.ranges, w.rangeElems
	}
}

// run is the worker loop: fetch a batch, process it, recycle the carrier
// ("worker threads consume chunks from their queues, analyze them, and store
// detected data dependences in thread-local maps. Empty chunks are
// recycled", §IV). The wait policy is the pipeline-wide queue.Backoff.
//
// Flight recording rides along at sampled granularity: one in sampleEvery
// idle episodes times the wait for the next batch (transport wait — the
// consumer-side view of producer/transport backpressure), one in sampleEvery
// batches times its processing, and every telemetryPublishEvery batches the
// worker publishes its counter deltas. All of it is skipped when m is nil,
// and clock reads never land on the per-event path.
func (w *worker) run() {
	var waitT0 time.Time
	waiting := false
	for idle := 0; ; {
		evs, rngs, c, ok := w.tr.pop()
		if !ok {
			if idle == 0 && w.m != nil {
				if w.waits++; w.waits%sampleEvery == 0 {
					waiting = true
					waitT0 = time.Now()
				}
			}
			idle++
			queue.Backoff(idle)
			continue
		}
		if waiting {
			w.m.StageTransportWaitNs.Observe(time.Since(waitT0).Nanoseconds())
			waiting = false
		}
		idle = 0
		var done bool
		w.batches++
		if w.m != nil && w.batches%sampleEvery == 0 {
			t0 := time.Now()
			done = w.process(evs, rngs)
			w.m.StageWorkerNs.Observe(time.Since(t0).Nanoseconds())
		} else {
			done = w.process(evs, rngs)
		}
		if c != nil {
			w.tr.recycle(c)
		}
		if w.m != nil {
			if w.countEvents {
				w.publishCounts()
			}
			if w.batches%telemetryPublishEvery == 0 {
				w.publishTelemetry()
			}
		}
		if done {
			return
		}
	}
}

// process applies one event batch, handling the control kinds uniformly for
// every mode. It is also the whole of Serial.AccessBatch, run inline.
func (w *worker) process(evs []event.Access, rngs []event.Range) (done bool) {
	for i := range evs {
		ev := &evs[i]
		if ev.Kind <= event.Remove {
			// Read, Write and Remove slots, the bulk of every batch, skip
			// the control-kind switch.
			if len(w.held) != 0 {
				if buf, ok := w.held[ev.Addr]; ok {
					w.held[ev.Addr] = append(buf, *ev)
					continue
				}
			}
			w.data(ev)
			continue
		}
		switch ev.Kind {
		case event.Flush:
			done = true
		case event.RangeRef:
			// A compressed strided run: one dispatch, then the engine's tight
			// element loop. Ranges only reach the sequential-target modes,
			// which never hold addresses, so the held-map probe of the point
			// path does not apply.
			r := &rngs[ev.Addr]
			if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
				w.events += uint64(r.Count)
				w.ranges++
				w.rangeElems += uint64(r.Count)
			}
			w.eng.ProcessRange(r)
		case event.Migrate:
			st := &migState{addr: ev.Addr}
			st.write, st.wok = w.eng.Store().LookupWrite(ev.Addr)
			st.read, st.rok = w.eng.Store().LookupRead(ev.Addr)
			w.eng.Store().Remove(ev.Addr)
			w.migOut.Store(st)
		case event.Install:
			var st *migState
			for i := 0; ; i++ {
				if st = w.installIn.Swap(nil); st != nil {
					break
				}
				queue.Backoff(i)
			}
			if st.wok {
				w.eng.Store().SetWrite(st.addr, st.write)
			}
			if st.rok {
				w.eng.Store().SetRead(st.addr, st.read)
			}
			// Replay accesses buffered while the address was in flight, in
			// arrival order, now that its history is local.
			if buf, ok := w.held[st.addr]; ok {
				delete(w.held, st.addr)
				for i := range buf {
					w.data(&buf[i])
				}
			}
		case event.Hold:
			if w.held == nil {
				w.held = make(map[uint64][]event.Access)
			}
			if _, ok := w.held[ev.Addr]; !ok {
				w.held[ev.Addr] = nil
			}
		case event.Promote:
			// Heavy-hitter hint from the producer's sketch: stores with an
			// exact tier adopt the address, everything else ignores it.
			if w.eng != nil {
				if p, ok := w.eng.Store().(sig.Promoter); ok {
					p.Promote(ev.Addr)
				}
			}
		case event.EpochMark:
			// Epoch boundary: extract the delta on this goroutine — the
			// producer never waits, and accesses already queued behind the
			// mark simply land in the next epoch.
			if w.eng != nil && w.onDelta != nil {
				d := w.eng.ExtractEpochDelta(uint32(ev.Addr))
				d.Worker = w.id
				w.onDelta(d)
			}
		}
	}
	return done
}

// data processes one read/write/remove event.
func (w *worker) data(ev *event.Access) {
	if ev.Kind != event.Remove {
		// A collapsed read stands for 1+Rep target accesses; count them all.
		w.events += 1 + uint64(ev.Rep)
	}
	if w.eng != nil {
		w.eng.Process(*ev)
	} else {
		w.ex.process(ev)
	}
}

// pipeline is the shared chassis of every profiler variant: the worker set,
// the flush state, and the merge stage.
type pipeline struct {
	workers []*worker
	m       *telemetry.Pipeline
	wg      sync.WaitGroup
	flushed bool
}

// startAll launches one goroutine per worker.
func (p *pipeline) startAll() {
	for _, w := range p.workers {
		w := w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run()
		}()
	}
}

// beginFlush is the centralized double-flush guard.
func (p *pipeline) beginFlush() {
	if p.flushed {
		panic(errDoubleFlush)
	}
	p.flushed = true
}

// chunkBytes is the memory footprint of one chunk (events + range side table
// + header), used for the Figure 7/8 queue-memory accounting.
const chunkBytes = event.ChunkSize*48 + event.MaxRangesPerChunk*64 + 64

// merge assembles the uniform Result for every typed mode. It must run after
// the workers have joined (the flush barrier makes all worker-local state
// safe to read). stats carries the producer-side counters; queueBytes the
// chunk memory; consumerCounts selects consumer-side access and range
// counting (serial mode, which has no producer, and MT mode, where
// concurrent producers keep no shared counter).
//
// "This step incurs only minor overhead since the local maps are free of
// duplicates" (§IV) — true for one process, not for a daemon draining
// sessions with millions of distinct dependences across many workers, so the
// fold is a parallel tree reduction (dep.TreeMerge) instead of a serial
// loop. Loop aggregates merge at key-set granularity: the same carried key
// may surface on several workers (same source lines, different addresses)
// and must not be double-counted.
func (p *pipeline) merge(stats RunStats, queueBytes uint64, consumerCounts bool) *Result {
	var mergeT0 time.Time
	if p.m != nil {
		mergeT0 = time.Now()
	}
	res := &Result{Stats: stats}
	stores := make([]sig.Store, 0, len(p.workers))
	nodes := make([]*mergeNode, 0, len(p.workers))
	for _, w := range p.workers {
		if consumerCounts {
			res.Stats.Accesses += w.events
			res.Stats.Ranges += w.ranges
			res.Stats.RangeElements += w.rangeElems
		}
		if w.tr != nil {
			res.WorkerEvents = append(res.WorkerEvents, w.events)
			res.Stats.QueueBytes += w.tr.memBytes()
		}
		// The worker's set and loop table are stolen, not copied: the
		// pipeline is past its flush barrier and the engines are done, so
		// the reduction may consume them in place.
		nodes = append(nodes, &mergeNode{deps: w.eng.Deps(), aggs: w.eng.loops})
		res.Stats.StoreBytes += w.eng.Store().Bytes()
		res.Stats.StoreModeledBytes += w.eng.Store().ModeledBytes()
		hits, probes := w.eng.CacheStats()
		res.Stats.DepCacheHits += hits
		res.Stats.DepCacheProbes += probes
		stores = append(stores, w.eng.Store())
	}
	res.Stats.QueueBytes += queueBytes
	if p.m != nil {
		// Final telemetry publication: each worker adds only the delta beyond
		// what it already published in flight (the workers have joined, so
		// their local state is safe to read here). Published before the tree
		// reduction, so a scrape that lands during a long merge of a large
		// profile already reads the final counters and occupancy gauges.
		for i, w := range p.workers {
			w.publishTelemetry()
			if w.tr == nil {
				continue
			}
			if d := w.tr.observedMaxDepth(); d >= 0 {
				p.m.ObserveQueueDepth(i, d)
			}
		}
		publishStoreTelemetry(p.m, stores...)
	}
	root := dep.TreeMerge(nodes)
	res.Deps = root.deps
	res.Loops = loopDepsOf(root.aggs)
	res.Carried = carriedKeysOf(root.aggs)
	if p.m != nil {
		p.m.StageMergeNs.Observe(time.Since(mergeT0).Nanoseconds())
	}
	return res
}

// mergeNode pairs one reduction operand's dependence set with its loop
// aggregates so both fold at the same tree level of dep.TreeMerge.
type mergeNode struct {
	deps *dep.Set
	aggs map[prog.LoopID]*loopAgg
}

// Unique implements dep.Shard: the dependence set's size ranks the pair.
func (n *mergeNode) Unique() int { return n.deps.Unique() }

// Absorb implements dep.Shard: the dependence sets fold (releasing o's slab
// pages for reuse), and the loop aggregates fold the same direction; both
// folds are order-insensitive.
func (n *mergeNode) Absorb(o *mergeNode) {
	n.deps.Absorb(o.deps)
	mergeLoopAggs(n.aggs, o.aggs)
}

// ownerOf is the modulo rule of Equation 1. The paper uses `address % W` on
// byte addresses; our substrate allocates 8-byte words, so the three
// alignment bits are shifted out first to keep the distribution even. Worker
// counts are powers of two in practice (they default to GOMAXPROCS but
// benchmarks and deployments pin 2/4/8/16), and for those the modulo is a
// mask — sparing the hot producer path a hardware divide per access, which
// profiling showed as a measurable slice of the distribution cost. The
// mapping is bit-identical to the modulo.
func ownerOf(addr uint64, w int, wMask uint64) int {
	if wMask != 0 {
		return int((addr >> 3) & wMask)
	}
	return int((addr >> 3) % uint64(w))
}

// powerOfTwoMask returns w-1 if w is a power of two, else 0.
func powerOfTwoMask(w int) uint64 {
	if w > 0 && w&(w-1) == 0 {
		return uint64(w - 1)
	}
	return 0
}

// migration is one planned address move.
type migration struct {
	addr     uint64
	from, to int
}

// planRebalance decides which of the top heavy hitters to migrate so they
// spread round-robin over the workers (§IV-A); nil when the current owners
// are already within one address of even.
func planRebalance(top []uint64, w int, owner func(uint64) int) []migration {
	if len(top) == 0 {
		return nil
	}
	counts := make([]int, w)
	for _, a := range top {
		counts[owner(a)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min <= 1 {
		return nil // already even
	}
	var moves []migration
	for rank, addr := range top {
		want := rank % w
		if cur := owner(addr); cur != want {
			moves = append(moves, migration{addr: addr, from: cur, to: want})
		}
	}
	return moves
}

// producer is the single-threaded distribution stage of §IV: it owns the
// open chunks, the routing decision (owner mask + redirect map, or
// round-robin dealing for existence mode), the duplicate-read filter, the
// heavy-hitter sketch, and the migrate/install rebalance protocol.
type producer struct {
	pl    *pipeline
	w     int
	wMask uint64 // w-1 when w is a power of two, else 0 (see ownerOf)
	// rr deals chunks round-robin instead of by address owner: existence
	// mode needs no per-address ordering, so any worker can take any chunk.
	rr   bool
	next int // next round-robin target
	open []*event.Chunk
	// lastIdx[w] is the index in open[w] of the last appended event, or -1
	// when the last slot is not mergeable (fresh chunk, post-control push).
	// The duplicate filter collapses a read identical to that event into its
	// Rep count instead of appending a copy.
	lastIdx []int
	// redirect overrides the modulo rule for migrated addresses
	// ("redistribution rules are stored in a map and have higher priority
	// than the modulo function", §IV-A).
	redirect map[uint64]int
	heavy    *heavySketch
	samples  uint64 // data accesses seen by the sketch's sampling cadence

	// comp enables SD3 range compression (rangecomp.go): non-round-robin
	// chunked routing only, off under Config.NoStrideCompression. instr is
	// the direct-mapped per-instruction detector table; own the per-owner
	// last-touch state. Both are nil when comp is false.
	comp  bool
	instr []instrEntry
	own   []ownerState

	redistributeEvery int
	// seedPromote is set when the worker stores have an exact heavy-hitter
	// tier (sig.Promoter): the producer then keeps its sketch warm and seeds
	// the owners with Promote events every checkEvery chunks, sharing the
	// rebalance cadence when redistribution is on.
	seedPromote         bool
	checkEvery          int
	chunksSinceCheck    int
	allocatedChunks     uint64
	stats               RunStats
	eventsPublished     uint64
	dupPublished        uint64
	rangesPublished     uint64
	rangeElemsPublished uint64
	m                   *telemetry.Pipeline
	// pushCtr: one in sampleEvery chunk pushes is timed into StageProduceNs
	// (push incl. backpressure, depth gauge, chunk refill).
	pushCtr uint64
}

// init wires the producer to its pipeline. rr selects round-robin dealing
// (one shared open chunk) over per-owner open chunks.
func (pr *producer) init(pl *pipeline, cfg *Config, rr bool) {
	pr.pl = pl
	pr.w = cfg.Workers
	pr.wMask = powerOfTwoMask(cfg.Workers)
	pr.rr = rr
	if !rr {
		// Round-robin dealing is already perfectly balanced; redistribution
		// only applies to address-owned routing.
		pr.redistributeEvery = cfg.RedistributeEvery
	}
	pr.m = cfg.Metrics
	pr.redirect = make(map[uint64]int)
	if !rr {
		pr.heavy = newHeavySketch(64)
		// Promoter stores get heavy-hitter seeding even without
		// redistribution; with it, both ride the same cadence.
		if w0 := pl.workers[0]; w0.eng != nil {
			if _, ok := w0.eng.Store().(sig.Promoter); ok {
				pr.seedPromote = true
			}
		}
		pr.checkEvery = pr.redistributeEvery
		if pr.checkEvery == 0 && pr.seedPromote {
			pr.checkEvery = promoteSeedEvery
		}
	}
	slots := cfg.Workers
	if rr {
		slots = 1
	}
	pr.open = make([]*event.Chunk, slots)
	pr.lastIdx = make([]int, slots)
	for i := range pr.open {
		pr.open[i] = pr.newChunk(pl.workers[i].tr)
		pr.lastIdx[i] = -1
	}
	pr.comp = !rr && !cfg.NoStrideCompression
	if pr.comp {
		pr.instr = make([]instrEntry, instrSlots)
		pr.own = make([]ownerState, slots)
		for i := range pr.own {
			// Epoch 1 so zero-valued touch cells read as stale; floor -1 so
			// no conservative touch floor applies to a fresh chunk.
			pr.own[i].epoch = 1
			pr.own[i].floor = -1
		}
	}
}

// putBatch is the producer's whole ingest: one chunk's worth of slots, with
// the access counting hoisted to a single update per batch. Data slots are
// counted and sampled, then routed, collapsed and appended by put; RangeRef
// slots index into ranges and go through accessRange; an EpochMark slot is
// broadcast to every worker at exactly its position (epochMark).
func (pr *producer) putBatch(accesses []event.Access, ranges []event.Range) {
	sketch := pr.checkEvery > 0
	var data uint64
	for i := range accesses {
		a := accesses[i]
		switch a.Kind {
		case event.Read, event.Write:
			// A collapsed read (Rep > 0) stands for 1+Rep accesses; the
			// sketch sampling cadence advances by the same amount.
			n := uint64(1 + a.Rep)
			data += n
			if sketch {
				pr.sample(a.Addr, n)
			}
		case event.RangeRef:
			pr.accessRange(&ranges[a.Addr])
			continue
		case event.EpochMark:
			pr.epochMark(uint32(a.Addr))
			continue
		}
		pr.put(a)
	}
	pr.stats.Accesses += data
}

// sample advances the heavy-hitter sketch's sampling cadence by n accesses
// to addr: every 16th access is offered, which keeps producer overhead
// bounded while heavily accessed addresses still dominate the sketch. A
// collapsed read's extra offers repeat the same address, exactly as the
// duplicates themselves would have. The sketch is consumed by rebalance()
// and by Promote seeding; when neither is on (the default) sampling is
// skipped entirely.
func (pr *producer) sample(addr, n uint64) {
	prev := pr.samples
	pr.samples += n
	for k := pr.samples>>4 - prev>>4; k > 0; k-- {
		pr.heavy.Offer(addr)
	}
}

// put routes, maybe collapses, appends, and pushes when full.
func (pr *producer) put(a event.Access) {
	w := 0
	if !pr.rr {
		// Owner computation is inlined on the hot path: the redirect map is
		// only populated once a rebalance has migrated an address
		// (redistribution is off by default), so the common case pays no map
		// probe at all.
		w = ownerOf(a.Addr, pr.w, pr.wMask)
		if len(pr.redirect) != 0 {
			if r, ok := pr.redirect[a.Addr]; ok {
				w = r
			}
		}
	}
	c := pr.open[w]
	if a.Kind == event.Read {
		// Duplicate filter: a read identical to the slot's previous event
		// (same statement re-reading the same word within one iteration) is
		// collapsed into that event's repetition count. Any intervening
		// access to the same address routes to the same slot and resets the
		// match, so the collapse is exact: the engine replays the
		// multiplicity and the profile is byte-identical.
		if li := pr.lastIdx[w]; li >= 0 {
			last := &c.Events[li]
			if last.Kind == event.Read && last.Rep != event.MaxRep {
				cmp := *last
				cmp.Rep = 0
				if cmp == a {
					last.Rep++
					pr.stats.DupCollapsed++
					return
				}
			}
		}
	}
	if pr.comp && (a.Kind == event.Read || a.Kind == event.Write) && a.Rep == 0 {
		// Stride compression (rangecomp.go): absorb a into an open range of
		// its instruction, or convert the instruction's previous point plus a
		// into one. On the miss path the appended point's slot is recorded in
		// the instruction entry — the conversion candidate for the next access.
		ent, absorbed := pr.compressAppend(&a, w)
		if absorbed {
			return
		}
		c.Append(a)
		slot := int32(c.Len() - 1)
		pr.lastIdx[w] = int(slot)
		pr.own[w].noteTouch(a.Addr, slot)
		ent.lastSlot = slot
	} else {
		c.Append(a)
		pr.lastIdx[w] = c.Len() - 1
		if pr.comp {
			// Removes (and any Rep-carrying event) still update the touch
			// table: nothing before them may be reordered across them.
			pr.own[w].noteTouch(a.Addr, int32(c.Len()-1))
		}
	}
	if c.Full() {
		pr.pushOpen(w)
		if pr.checkEvery > 0 && !pr.rr {
			pr.chunksSinceCheck++
			if pr.chunksSinceCheck >= pr.checkEvery {
				pr.chunksSinceCheck = 0
				if pr.seedPromote {
					pr.seedPromotions()
				}
				if pr.redistributeEvery > 0 {
					pr.rebalance()
				}
			}
		}
	}
}

// promoteSeedEvery is the chunk cadence of heavy-hitter Promote seeding when
// redistribution is off (with it on, seeding shares RedistributeEvery).
const promoteSeedEvery = 1024

// seedPromotions pushes the sketch's current top heavy hitters to their
// owners as Promote control events, riding the open chunks: a hybrid store
// adopts the address into its exact tier, any other store ignores the hint.
// Unlike rebalance this moves no state through mailboxes — the receiving
// store carries its own tail history across — so seeding is safe at any
// point in the stream.
func (pr *producer) seedPromotions() {
	for _, addr := range pr.heavy.Top(10) {
		w := pr.owner(addr)
		c := pr.open[w]
		c.Append(event.Access{Addr: addr, Kind: event.Promote})
		pr.lastIdx[w] = c.Len() - 1
		if c.Full() {
			pr.pushOpen(w)
		}
	}
}

// newChunk takes a recycled chunk from a worker's return ring if available,
// else allocates.
func (pr *producer) newChunk(tr transport) *event.Chunk {
	if c, ok := tr.takeChunk(); ok {
		if pr.m != nil {
			pr.m.ChunksRecycled.Inc()
		}
		return c
	}
	return pr.allocChunk()
}

// newChunkRR is the round-robin variant: any worker can return a chunk (they
// are dealt everywhere), so probe every recycle ring before allocating.
func (pr *producer) newChunkRR() *event.Chunk {
	for i := 0; i < len(pr.pl.workers); i++ {
		w := (pr.next + i) % len(pr.pl.workers)
		if c, ok := pr.pl.workers[w].tr.takeChunk(); ok {
			if pr.m != nil {
				pr.m.ChunksRecycled.Inc()
			}
			return c
		}
	}
	return pr.allocChunk()
}

func (pr *producer) allocChunk() *event.Chunk {
	pr.allocatedChunks++
	if pr.m != nil {
		pr.m.ChunksAllocated.Inc()
	}
	return event.NewChunk()
}

// pushOpen sends slot w's open chunk to its worker — the address owner, or
// the next round-robin target — and opens a fresh one.
func (pr *producer) pushOpen(w int) {
	c := pr.open[w]
	pr.lastIdx[w] = -1
	if c.Len() == 0 {
		return
	}
	// Sampled producer-stage span: the push (including any backpressure wait
	// inside pushChunk), the depth observation, and the chunk refill — the
	// full per-chunk routing cost the §IV producer pays.
	var produceT0 time.Time
	timed := false
	if pr.m != nil {
		if pr.pushCtr++; pr.pushCtr%sampleEvery == 0 {
			timed = true
			produceT0 = time.Now()
		}
	}
	tgt := w
	if pr.rr {
		tgt = pr.next
		pr.next = (pr.next + 1) % len(pr.pl.workers)
	}
	if pr.comp {
		// Open a fresh touch-table generation: pushed chunks are immutable,
		// so nothing in them may be merged into again.
		os := &pr.own[w]
		os.epoch++
		os.floor = -1
	}
	tw := pr.pl.workers[tgt]
	tw.tr.pushChunk(c)
	pr.stats.Chunks++
	if pr.m != nil {
		pr.m.Chunks.Inc()
		pr.publishCounters()
		// Depth right after the push; the pushed chunk may already have been
		// consumed, so count it in to keep the gauge a lower bound of the
		// burst the worker saw.
		d := int64(tw.tr.depth())
		if d == 0 {
			d = 1
		}
		pr.m.ObserveQueueDepth(tgt, d)
	}
	if pr.rr {
		pr.open[w] = pr.newChunkRR()
	} else {
		pr.open[w] = pr.newChunk(tw.tr)
	}
	if timed {
		pr.m.StageProduceNs.Observe(time.Since(produceT0).Nanoseconds())
	}
}

// rebalance checks whether the top heavy hitters are spread evenly over the
// workers and migrates them if not (§IV-A).
func (pr *producer) rebalance() {
	moves := planRebalance(pr.heavy.Top(10), pr.w, pr.owner)
	if len(moves) == 0 {
		return
	}
	for _, mv := range moves {
		pr.migrate(mv.addr, mv.from, mv.to)
	}
	pr.stats.Redistributions++
	if pr.m != nil {
		pr.m.Redistributions.Inc()
	}
}

// owner maps an address to its worker, redirects first.
func (pr *producer) owner(addr uint64) int {
	if w, ok := pr.redirect[addr]; ok {
		return w
	}
	return ownerOf(addr, pr.w, pr.wMask)
}

// migrate moves one address and its signature state from worker `from` to
// worker `to`. The protocol preserves the per-address total order:
//
//  1. All accesses routed so far are in from's queue; a MIGRATE control
//     event is pushed behind them, so `from` processes it only after every
//     earlier access.
//  2. `from` publishes the address's slot state in its mailbox and forgets
//     the address; the producer spins for the mailbox.
//  3. The producer hands the state to `to` via its install mailbox and
//     pushes an INSTALL control event; accesses routed after the redirect
//     update follow INSTALL in `to`'s queue, preserving order.
func (pr *producer) migrate(addr uint64, from, to int) {
	fw, tw := pr.pl.workers[from], pr.pl.workers[to]

	// Step 1: flush pending accesses, then MIGRATE. Control chunks count as
	// ControlChunks, not Chunks: they carry no accesses, so folding them
	// into the data-chunk count would skew events-per-chunk throughput math.
	pr.pushOpen(from)
	mc := pr.newChunk(fw.tr)
	mc.Append(event.Access{Addr: addr, Kind: event.Migrate})
	fw.tr.pushChunk(mc)
	pr.stats.ControlChunks++

	// Step 2: wait for the state.
	var st *migState
	for i := 0; ; i++ {
		if st = fw.migOut.Swap(nil); st != nil {
			break
		}
		queue.Backoff(i)
	}

	// Step 3: install at the destination. The install mailbox must be free:
	// wait until the previous installation (if any) was consumed.
	for i := 0; !tw.installIn.CompareAndSwap(nil, st); i++ {
		queue.Backoff(i)
	}
	pr.pushOpen(to)
	ic := pr.newChunk(tw.tr)
	ic.Append(event.Access{Addr: addr, Kind: event.Install})
	tw.tr.pushChunk(ic)
	pr.stats.ControlChunks++

	pr.redirect[addr] = to
	pr.stats.Migrations++
	if pr.m != nil {
		pr.m.Migrations.Inc()
	}
}

// drainFlush pushes the remaining open chunks and one flush sentinel per
// worker; the caller then waits on the pipeline's flush barrier.
func (pr *producer) drainFlush() {
	if pr.rr {
		pr.pushOpen(0)
	}
	for i, w := range pr.pl.workers {
		if !pr.rr {
			pr.pushOpen(i)
		}
		fc := pr.newChunk(w.tr)
		fc.Append(event.Access{Kind: event.Flush})
		w.tr.pushChunk(fc)
		pr.stats.ControlChunks++
	}
	if pr.m != nil {
		pr.publishCounters()
	}
	pr.publishCompressionState()
}

// publishCounters pushes the producer's counter deltas to telemetry; called
// at chunk-push cadence and once more at flush. Events is the logical access
// count, Stats.Accesses: a collapsed read counts its whole multiplicity and a
// range its element count, whatever slot they occupy, and control and Remove
// slots count nothing.
func (pr *producer) publishCounters() {
	if d := pr.stats.Accesses - pr.eventsPublished; d > 0 {
		pr.m.Events.Add(d)
		pr.eventsPublished = pr.stats.Accesses
	}
	if d := pr.stats.DupCollapsed - pr.dupPublished; d > 0 {
		pr.m.DupCollapsed.Add(d)
		pr.dupPublished = pr.stats.DupCollapsed
	}
	if d := pr.stats.Ranges - pr.rangesPublished; d > 0 {
		pr.m.Ranges.Add(d)
		pr.rangesPublished = pr.stats.Ranges
	}
	if d := pr.stats.RangeElements - pr.rangeElemsPublished; d > 0 {
		pr.m.RangeElements.Add(d)
		pr.rangeElemsPublished = pr.stats.RangeElements
	}
}
