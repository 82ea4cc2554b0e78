package core

import (
	"sync"
	"sync/atomic"

	"ddprof/internal/event"
	"ddprof/internal/queue"
	"ddprof/internal/telemetry"
)

// MT is the profiler of §V for multi-threaded target programs.
//
// Every target thread calls Access concurrently. To keep the per-address
// order observable, the target must hold its own lock around conflicting
// accesses and the instrumentation calls Access *inside the same lock
// region* (paper Figure 4) — the VM guarantees this. That is why Access, the
// per-access hook of multi-threaded target runs, stays outside the Profiler
// interface: batching it per target thread would move the pushes out of the
// critical section and change which races get flagged.
// Each access is pushed individually (not chunked) into the owning worker's
// lock-free MPSC queue; per-access pushes plus producer contention are the
// reason MT profiling is slower (Figure 6) and hungrier (Figure 8) than
// sequential-target profiling.
//
// Accesses carry global timestamps; a worker observing a timestamp reversal
// for an address has proven the two accesses were not mutually exclusive and
// flags the dependence as a potential data race (§V-B).
//
// As a pipeline composition, MT is per-access transports into the same
// engine workers as Parallel. The transports' consumer side supplies the
// duplicate-read collapse (the producers are the target's own threads and
// must stay filter-free), and a dedicated rebalancer goroutine runs the
// §IV-A heavy-hitter redistribution with a copy-on-write routing table,
// since the concurrent producers cannot reroute synchronously the way the
// sequential-target producer does.
type MT struct {
	pl    pipeline
	w     int
	wMask uint64 // w-1 when w is a power of two, else 0 (see ownerOf)
	m     *telemetry.Pipeline

	// rt is the routing table, non-nil only when redistribution is on.
	// Producers read it lock-free; the rebalancer replaces it copy-on-write.
	rt atomic.Pointer[routeTable]
	// inflight counts producers between routing-table load and queue push.
	// The rebalancer waits for it to drain after publishing a new table, so
	// every access routed by the old table is already in the old owner's
	// queue before the MIGRATE control event is pushed behind them.
	inflight  atomic.Int64
	sampleCtr atomic.Uint64
	heavyMu   sync.Mutex
	heavy     *heavySketch
	// kick nudges the rebalancer every kickEvery accesses; stop ends it.
	kick       chan struct{}
	stop       chan struct{}
	kickEvery  uint64
	rebalWG    sync.WaitGroup
	rebalStats RunStats
}

// routeTable maps addresses to owning workers: the Equation 1 modulo rule,
// overridden by the redirect map for migrated addresses ("redistribution
// rules are stored in a map and have higher priority than the modulo
// function", §IV-A). Tables are immutable once published.
type routeTable struct {
	w        int
	wMask    uint64
	redirect map[uint64]int
}

func (rt *routeTable) owner(addr uint64) int {
	if len(rt.redirect) != 0 {
		if w, ok := rt.redirect[addr]; ok {
			return w
		}
	}
	return ownerOf(addr, rt.w, rt.wMask)
}

// NewMT builds the MT pipeline and starts the workers; it panics on an
// invalid Config (use New for an error return). RaceCheck defaults on
// because timestamps are already being collected.
func NewMT(cfg Config) *MT {
	m, err := newMT(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func newMT(cfg Config) (*MT, error) {
	cfg, err := cfg.normalize(ModeMT)
	if err != nil {
		return nil, err
	}
	stores, err := makeStores(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m := &MT{w: cfg.Workers, wMask: powerOfTwoMask(cfg.Workers), m: cfg.Metrics}
	m.pl.m = cfg.Metrics
	for i := 0; i < cfg.Workers; i++ {
		eng := NewEngine(stores[i], cfg.Meta, true)
		if cfg.TrackBounds {
			eng.EnableBoundsTracking()
		}
		m.pl.workers = append(m.pl.workers, &worker{
			id:      i,
			tr:      newAccessTransport(cfg.QueueCap),
			eng:     eng,
			m:       cfg.Metrics,
			onDelta: cfg.OnEpochDelta,
			// events_total is counted here on the consumer side, one batched
			// Add per drain: the concurrent producers of §V must not pay a
			// shared atomic per access.
			countEvents: true,
		})
	}
	m.pl.startAll()
	if cfg.RedistributeEvery > 0 {
		// The sequential-target producer checks every RedistributeEvery
		// chunks; MT has no chunks, so the equivalent cadence is that many
		// chunk-sizes worth of accesses.
		m.kickEvery = uint64(cfg.RedistributeEvery) * event.ChunkSize
		m.heavy = newHeavySketch(64)
		m.kick = make(chan struct{}, 1)
		m.stop = make(chan struct{})
		m.rt.Store(&routeTable{w: m.w, wMask: m.wMask})
		m.rebalWG.Add(1)
		go m.rebalancer()
	}
	return m, nil
}

// Access implements Profiler; safe for concurrent use by target threads.
// events_total accounting happens on the consumer side (see newMT), so this
// path touches no shared telemetry state.
func (m *MT) Access(a event.Access) {
	isData := a.Kind == event.Read || a.Kind == event.Write
	if m.rt.Load() == nil {
		// Redistribution off (the default): route by the static modulo rule,
		// no inflight accounting on the hot path.
		m.pl.workers[ownerOf(a.Addr, m.w, m.wMask)].tr.pushAccess(a)
		return
	}
	if isData {
		// Feed the heavy-hitter sketch on a sampled subset; TryLock keeps
		// producers from serializing on the sketch — a lost sample is noise.
		c := m.sampleCtr.Add(1)
		if c&15 == 0 && m.heavyMu.TryLock() {
			m.heavy.Offer(a.Addr)
			m.heavyMu.Unlock()
		}
		if c%m.kickEvery == 0 {
			select {
			case m.kick <- struct{}{}:
			default:
			}
		}
	}
	// The quiescence protocol: raise inflight BEFORE loading the table, so
	// the rebalancer observing inflight == 0 after publishing a new table
	// knows every push routed by the old table has completed.
	m.inflight.Add(1)
	rt := m.rt.Load()
	m.pl.workers[rt.owner(a.Addr)].tr.pushAccess(a)
	m.inflight.Add(-1)
}

// AccessBatch implements Profiler. MT's transport is per-access (each record
// is pushed into a per-worker MPSC ring), so there is no bulk fast path to
// exploit: the batch expands through Access, RangeRef slots element by
// element — exactly what a local multi-threaded target would have produced.
// An EpochMark slot is pushed through every worker's ring (multi-producer
// safe, so a ticker goroutine may feed one concurrently with target threads);
// workers cut their deltas at their drain position, and instances pushed
// concurrently land on one side or the other, which the delta-union
// guarantee is indifferent to. Safe for concurrent use, like Access.
func (m *MT) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for i := range accesses {
		a := accesses[i]
		switch a.Kind {
		case event.RangeRef:
			r := &ranges[a.Addr]
			for j := uint32(0); j < r.Count; j++ {
				m.Access(r.At(j))
			}
		case event.EpochMark:
			for _, w := range m.pl.workers {
				w.tr.pushAccess(a)
			}
		default:
			m.Access(a)
		}
	}
}

// rebalancer runs redistribution rounds on kicks; on stop it runs one final
// round (making rebalancing deterministic for drained streams) and exits.
func (m *MT) rebalancer() {
	defer m.rebalWG.Done()
	for {
		select {
		case <-m.stop:
			m.rebalanceRound()
			return
		case <-m.kick:
			m.rebalanceRound()
		}
	}
}

// rebalanceRound checks whether the top heavy hitters are spread evenly over
// the workers and migrates them if not (§IV-A).
func (m *MT) rebalanceRound() {
	m.heavyMu.Lock()
	top := m.heavy.Top(10)
	m.heavyMu.Unlock()
	rt := m.rt.Load()
	moves := planRebalance(top, m.w, rt.owner)
	if len(moves) == 0 {
		return
	}
	for _, mv := range moves {
		m.migrate(mv.addr, mv.from, mv.to)
	}
	m.rebalStats.Redistributions++
	if m.m != nil {
		m.m.Redistributions.Inc()
	}
}

// migrate moves one address and its signature state between workers while
// the producers keep pushing. The per-address order is preserved by a
// hold-and-replay protocol layered on the sequential-target mailboxes:
//
//  1. A HOLD control event is pushed to the destination; the destination
//     buffers any access to the address that arrives after it.
//  2. The routing table is republished with the redirect. New accesses now
//     go to the destination, where they land behind HOLD (the MPSC ring
//     assigns slots in push order and the table swap happens after the HOLD
//     push completed).
//  3. The rebalancer waits for in-flight producers to drain: afterwards,
//     every access routed by the old table is in the old owner's queue.
//  4. MIGRATE is pushed behind them; the old owner exports the address's
//     signature state through its mailbox and forgets it.
//  5. The state is handed to the destination's install mailbox and INSTALL
//     pushed; on INSTALL the destination adopts the state, then replays the
//     held accesses in arrival order.
func (m *MT) migrate(addr uint64, from, to int) {
	fw, tw := m.pl.workers[from], m.pl.workers[to]

	// Step 1: hold at the destination.
	tw.tr.pushAccess(event.Access{Addr: addr, Kind: event.Hold})

	// Step 2: publish the rerouted table (copy-on-write).
	old := m.rt.Load()
	redirect := make(map[uint64]int, len(old.redirect)+1)
	for k, v := range old.redirect {
		redirect[k] = v
	}
	redirect[addr] = to
	m.rt.Store(&routeTable{w: old.w, wMask: old.wMask, redirect: redirect})

	// Step 3: quiesce producers still holding the old table.
	for i := 0; m.inflight.Load() != 0; i++ {
		queue.Backoff(i)
	}

	// Step 4: extract the state from the old owner.
	fw.tr.pushAccess(event.Access{Addr: addr, Kind: event.Migrate})
	var st *migState
	for i := 0; ; i++ {
		if st = fw.migOut.Swap(nil); st != nil {
			break
		}
		queue.Backoff(i)
	}

	// Step 5: install at the destination.
	for i := 0; !tw.installIn.CompareAndSwap(nil, st); i++ {
		queue.Backoff(i)
	}
	tw.tr.pushAccess(event.Access{Addr: addr, Kind: event.Install})

	m.rebalStats.Migrations++
	if m.m != nil {
		m.m.Migrations.Inc()
	}
}

// Flush implements Profiler. It must be called after every target thread has
// finished (the VM joins them first), so no Access call can race with the
// flush sentinels.
func (m *MT) Flush() *Result {
	m.pl.beginFlush()
	if m.stop != nil {
		close(m.stop)
		m.rebalWG.Wait()
	}
	for _, w := range m.pl.workers {
		w.tr.pushAccess(event.Access{Kind: event.Flush})
	}
	m.pl.wg.Wait()

	stats := m.rebalStats
	for _, w := range m.pl.workers {
		stats.DupCollapsed += w.tr.(*accessTransport).collapsed
	}
	if m.m != nil && stats.DupCollapsed > 0 {
		m.m.DupCollapsed.Add(stats.DupCollapsed)
	}
	// Counting on the consumer side keeps the concurrent producers free of a
	// shared atomic counter; the flush barrier makes the per-worker sums safe
	// to read.
	return m.pl.merge(stats, 0, true)
}
