package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

// deltaLog collects epoch-delta extractions; OnEpochDelta runs on worker
// goroutines, so the log is mutex-guarded.
type deltaLog struct {
	mu     sync.Mutex
	deltas []*EpochDelta
}

func (l *deltaLog) add(d *EpochDelta) {
	l.mu.Lock()
	l.deltas = append(l.deltas, d)
	l.mu.Unlock()
}

// foldDeltas unions every logged delta (and per-loop delta) into one set per
// table, the way a watch subscriber folds the frames it receives.
func (l *deltaLog) fold() (*dep.Set, map[prog.LoopID]*dep.Set) {
	l.mu.Lock()
	defer l.mu.Unlock()
	deps := dep.NewSet()
	loops := make(map[prog.LoopID]*dep.Set)
	for _, d := range l.deltas {
		deps.Merge(d.Deps)
		for id, ks := range d.Loops {
			if loops[id] == nil {
				loops[id] = dep.NewSet()
			}
			loops[id].Merge(ks)
		}
	}
	return deps, loops
}

// encodeSet renders a set with a fixed table so results byte-compare.
func encodeSet(t *testing.T, s *dep.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dep.Encode(&buf, s, loc.NewTable(), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// epochKinds are the pipelines the epoch tests cut: serial, parallel on the
// modulo owner path (3 workers) and on the owner-mask path (4 workers), and
// MT.
var epochKinds = []string{"serial", "parallel3", "parallel4", "mt"}

func newEpochProfiler(kind string, cfg Config) Profiler {
	switch kind {
	case "serial":
		return NewSerial(cfg)
	case "parallel3", "parallel4":
		cfg.Workers = 3
		if kind == "parallel4" {
			cfg.Workers = 4
		}
		cfg.QueueCap = 4
		return NewParallel(cfg)
	case "mt":
		cfg.Workers = 2
		cfg.QueueCap = 256
		return NewMT(cfg)
	}
	panic(kind)
}

// withMarks returns evs with an EpochMark slot before every every-th event
// and one more at the end — the in-band form of an epoch-cut stream, marks
// numbered from 1.
func withMarks(evs []event.Access, every int) []event.Access {
	var out []event.Access
	var epoch uint64
	for i, a := range evs {
		if i > 0 && i%every == 0 {
			epoch++
			out = append(out, event.Access{Addr: epoch, Kind: event.EpochMark})
		}
		out = append(out, a)
	}
	return append(out, event.Access{Addr: epoch + 1, Kind: event.EpochMark})
}

// feedInBand feeds slots in fixed-size batches, so marks arrive in the
// middle of batches.
func feedInBand(p Profiler, slots []event.Access, batch int) *Result {
	for i := 0; i < len(slots); i += batch {
		p.AccessBatch(slots[i:min(i+batch, len(slots))], nil)
	}
	return p.Flush()
}

// feedSplit feeds the same slots split at the marks: every run of data slots
// as one batch and every mark as a one-slot batch of its own.
func feedSplit(p Profiler, slots []event.Access) *Result {
	seg := 0
	for i := range slots {
		if slots[i].Kind == event.EpochMark {
			if i > seg {
				p.AccessBatch(slots[seg:i], nil)
			}
			p.AccessBatch(slots[i:i+1], nil)
			seg = i + 1
		}
	}
	if seg < len(slots) {
		p.AccessBatch(slots[seg:], nil)
	}
	return p.Flush()
}

// sorted returns the logged deltas ordered by (epoch, worker); parallel
// workers deliver theirs concurrently.
func (l *deltaLog) sorted() []*EpochDelta {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]*EpochDelta(nil), l.deltas...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// TestEpochDeltaEquivalence is the live observatory's core invariant, run
// over every pipeline kind and both an exact and a lossy store: cut an epoch
// every few hundred (and every few dozen) events with EpochMark slots
// arriving in the middle of batches, then
//   - fold every extracted delta plus the final remainder — the result must
//     encode byte-identical to the run's own final profile, dependences and
//     per-loop carried keys alike;
//   - compare every delta with the one extracted when the same stream is
//     split into separate batches at the mark positions — they must be
//     identical, so an in-band mark cuts at exactly its slot;
//   - require one delta from every worker at every mark.
func TestEpochDeltaEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, kind := range epochKinds {
				for _, backend := range []string{"perfect", "signature"} {
					for _, every := range []int{300, 37} {
						label := fmt.Sprintf("%s/%s/%s/every%d", s.name, kind, backend, every)
						slots := withMarks(s.evs, every)
						log := &deltaLog{}
						cfg := Config{
							Backend:      backend,
							Meta:         s.meta,
							OnEpochDelta: log.add,
							TrackBounds:  true,
						}
						res := feedInBand(newEpochProfiler(kind, cfg), slots, 64)
						checkDeltaUnion(t, label, log, res)
						checkEveryWorkerCuts(t, label, log.sorted(), slots, max(len(res.WorkerEvents), 1))

						splitLog := &deltaLog{}
						cfg.OnEpochDelta = splitLog.add
						splitRes := feedSplit(newEpochProfiler(kind, cfg), slots)
						requireSameProfile(t, label, splitRes, res)
						checkSameDeltas(t, label, splitLog.sorted(), log.sorted())
					}
				}
			}
		})
	}
}

// checkDeltaUnion requires the logged deltas plus the final remainder to fold
// to exactly res.
func checkDeltaUnion(t *testing.T, label string, log *deltaLog, res *Result) {
	t.Helper()
	folded, foldedLoops := log.fold()
	rem := dep.NewSet()
	res.Deps.ExtractDelta(rem)
	folded.Merge(rem)
	for id, ks := range res.Carried {
		out := dep.NewSet()
		if ks.ExtractDelta(out) > 0 {
			if foldedLoops[id] == nil {
				foldedLoops[id] = dep.NewSet()
			}
			foldedLoops[id].Merge(out)
		}
		out.Release()
	}

	if want, got := encodeSet(t, res.Deps), encodeSet(t, folded); !bytes.Equal(want, got) {
		t.Errorf("%s: folded deltas (%d deps) differ from final profile (%d deps)",
			label, folded.Unique(), res.Deps.Unique())
	}
	if folded.Instances() != res.Deps.Instances() {
		t.Errorf("%s: folded instances %d, final %d", label, folded.Instances(), res.Deps.Instances())
	}
	for id, ks := range res.Carried {
		if ks.Unique() == 0 {
			continue
		}
		fl := foldedLoops[id]
		if fl == nil {
			t.Errorf("%s: loop %d carried keys never shipped in a delta", label, id)
			continue
		}
		if want, got := encodeSet(t, ks), encodeSet(t, fl); !bytes.Equal(want, got) {
			t.Errorf("%s: loop %d folded carried keys differ from final", label, id)
		}
	}
}

// checkEveryWorkerCuts requires one delta from every worker at every mark in
// slots, numbered as the marks are.
func checkEveryWorkerCuts(t *testing.T, label string, deltas []*EpochDelta, slots []event.Access, workers int) {
	t.Helper()
	var marks []uint32
	for _, a := range slots {
		if a.Kind == event.EpochMark {
			marks = append(marks, uint32(a.Addr))
		}
	}
	if len(deltas) != len(marks)*workers {
		t.Fatalf("%s: %d deltas for %d marks × %d workers", label, len(deltas), len(marks), workers)
	}
	for i, d := range deltas {
		if d.Epoch != marks[i/workers] || d.Worker != i%workers {
			t.Fatalf("%s: delta %d is epoch %d worker %d, want epoch %d worker %d",
				label, i, d.Epoch, d.Worker, marks[i/workers], i%workers)
		}
	}
}

// checkSameDeltas requires two (epoch, worker)-sorted delta logs to match
// delta for delta: dependences, per-loop carried keys and bounds.
func checkSameDeltas(t *testing.T, label string, want, got []*EpochDelta) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d deltas, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		at := fmt.Sprintf("%s: epoch %d worker %d", label, w.Epoch, w.Worker)
		if g.Epoch != w.Epoch || g.Worker != w.Worker {
			t.Fatalf("%s: delta %d is epoch %d worker %d", at, i, g.Epoch, g.Worker)
		}
		if !bytes.Equal(encodeSet(t, w.Deps), encodeSet(t, g.Deps)) {
			t.Errorf("%s: deps differ (%d vs %d unique)", at, g.Deps.Unique(), w.Deps.Unique())
		}
		if len(w.Loops) != len(g.Loops) {
			t.Errorf("%s: %d loops changed, want %d", at, len(g.Loops), len(w.Loops))
		}
		for id, ks := range w.Loops {
			if gks := g.Loops[id]; gks == nil || !bytes.Equal(encodeSet(t, ks), encodeSet(t, gks)) {
				t.Errorf("%s: loop %d carried keys differ", at, id)
			}
		}
		if !reflect.DeepEqual(w.Bounds, g.Bounds) {
			t.Errorf("%s: bounds %v, want %v", at, g.Bounds, w.Bounds)
		}
	}
}

// TestEpochDeltaBounds: with TrackBounds on, epoch deltas carry each worker's
// per-variable address interval, covering exactly the addresses the stream
// touched.
func TestEpochDeltaBounds(t *testing.T) {
	s := equivSuite()[0] // carried-raw: addresses 0x1000..0x1000+63*8
	log := &deltaLog{}
	p := NewSerial(Config{Backend: "perfect", Meta: s.meta, OnEpochDelta: log.add, TrackBounds: true})
	p.AccessBatch(s.evs, nil)
	put(p, event.Access{Addr: 1, Kind: event.EpochMark})
	p.Flush()

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.deltas) != 1 {
		t.Fatalf("%d deltas, want 1", len(log.deltas))
	}
	bs := log.deltas[0].Bounds
	if len(bs) == 0 {
		t.Fatal("delta carries no bounds with TrackBounds on")
	}
	var lo, hi uint64
	for i, b := range bs {
		if i == 0 || b.Lo < lo {
			lo = b.Lo
		}
		if b.Hi > hi {
			hi = b.Hi
		}
	}
	if lo != 0x1000 || hi != 0x1000+63*8 {
		t.Fatalf("bounds cover [%#x, %#x], want [0x1000, %#x]", lo, hi, 0x1000+63*8)
	}
}

// TestEpochMarkWithoutCallback: marks on a pipeline with no OnEpochDelta sink
// are a no-op, not a leak or a panic.
func TestEpochMarkWithoutCallback(t *testing.T) {
	s := equivSuite()[0]
	for _, kind := range epochKinds {
		res := feedInBand(newEpochProfiler(kind, Config{Backend: "perfect", Meta: s.meta}), withMarks(s.evs, 100), 64)
		if res.Deps.Unique() == 0 {
			t.Errorf("%s: marks without a callback broke profiling", kind)
		}
	}
}
