package event

// Hook receives one event per instrumented memory access. It is the single
// contract between the instrumentation producers (the tree-walking
// interpreter and the bytecode VM) and their consumers: ChunkHook, which
// carries a sequential target's accesses into a profiler's batch seam;
// core.MT, whose Access multi-threaded targets call inside their lock
// regions; the trace writers; and the experiment capture buffers.
type Hook interface {
	Access(a Access)
}

// HookFunc adapts a plain function to a Hook.
type HookFunc func(a Access)

// Access implements Hook.
func (f HookFunc) Access(a Access) { f(a) }

// ChunkHook is the Hook that carries a sequential target's accesses into a
// batch seam (core.Profiler.AccessBatch): it fills one Chunk and hands each
// full chunk to feed; Close hands over the tail. feed must not keep the
// slice. Not safe for concurrent callers.
type ChunkHook struct {
	feed func([]Access, []Range)
	c    *Chunk
}

// NewChunkHook returns a ChunkHook feeding feed.
func NewChunkHook(feed func(accesses []Access, ranges []Range)) *ChunkHook {
	return &ChunkHook{feed: feed, c: NewChunk()}
}

// Access implements Hook.
func (h *ChunkHook) Access(a Access) {
	h.c.Append(a)
	if h.c.Full() {
		h.feed(h.c.Events, nil)
		h.c.Reset()
	}
}

// Close hands the buffered tail to feed; call it once the target has
// finished, before flushing the profiler.
func (h *ChunkHook) Close() {
	if h.c.Len() > 0 {
		h.feed(h.c.Events, nil)
		h.c.Reset()
	}
}

// Recorder is a Hook that buffers the full access stream so one target run
// can be replayed into many profiler configurations (or compared against
// another producer's stream) without re-executing the target. It also
// counts distinct read/write addresses, the denominator of the paper's
// Table I. Not safe for concurrent callers; wrap sequential-target runs
// only, or serialize upstream.
type Recorder struct {
	events []Access
	seen   map[uint64]struct{}
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: make(map[uint64]struct{})}
}

// Access implements Hook.
func (r *Recorder) Access(a Access) {
	r.events = append(r.events, a)
	if a.Kind == Read || a.Kind == Write {
		r.seen[a.Addr] = struct{}{}
	}
}

// Events returns the recorded stream, in arrival order.
func (r *Recorder) Events() []Access { return r.events }

// Addresses returns the number of distinct addresses touched.
func (r *Recorder) Addresses() int { return len(r.seen) }
