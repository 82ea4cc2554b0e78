package core

import (
	"ddprof/internal/event"
)

// Parallel is the profiler of §IV for sequential targets: the main (target)
// thread produces accesses, distributes them into per-worker chunks by
// address, and W workers detect dependences in disjoint address subsets
// using worker-local signatures and dependence maps.
//
// It is the canonical pipeline composition: the shared producer stage
// (address routing, duplicate filter, heavy-hitter redistribution) over
// chunked transports into engine workers, merged by the shared merge stage.
//
// AccessBatch must be called from a single goroutine (the target is
// sequential); Flush drains the pipeline, joins the workers and merges their
// results.
type Parallel struct {
	pl pipeline
	pr producer
}

// NewParallel builds the pipeline and starts the workers; it panics on an
// invalid Config (use New for an error return).
func NewParallel(cfg Config) *Parallel {
	p, err := newParallel(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func newParallel(cfg Config) (*Parallel, error) {
	cfg, err := cfg.normalize(ModeParallel)
	if err != nil {
		return nil, err
	}
	stores, err := makeStores(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	p := &Parallel{}
	p.pl.m = cfg.Metrics
	for i := 0; i < cfg.Workers; i++ {
		eng := NewEngine(stores[i], cfg.Meta, cfg.RaceCheck)
		if cfg.TrackBounds {
			eng.EnableBoundsTracking()
		}
		p.pl.workers = append(p.pl.workers, &worker{
			id:      i,
			tr:      newChunkTransport(cfg.LockBased, cfg.QueueCap),
			eng:     eng,
			m:       cfg.Metrics,
			onDelta: cfg.OnEpochDelta,
		})
	}
	p.pl.startAll()
	p.pr.init(&p.pl, &cfg, false)
	return p, nil
}

// AccessBatch implements Profiler: one batch through the producer with the
// counting and sketch bookkeeping amortized per batch. A range is split along
// the owner mask so per-address routing is exactly what its Count elements as
// points would produce, and an EpochMark slot is pushed behind every worker's
// pending accesses. Single-goroutine.
func (p *Parallel) AccessBatch(accesses []event.Access, ranges []event.Range) {
	p.pr.putBatch(accesses, ranges)
}

// Flush implements Profiler.
func (p *Parallel) Flush() *Result {
	p.pl.beginFlush()
	p.pr.drainFlush()
	p.pl.wg.Wait()
	return p.pl.merge(p.pr.stats, p.pr.allocatedChunks*chunkBytes, false)
}
