package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ddprof"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/vm"
)

// batchSize is how many captured events one AccessBatch call replays — the
// producer's chunk size, so replays see the same batch shape a remote
// session's decoded frames do.
const batchSize = event.ChunkSize

// batcher is a Hook that replays the live event stream into a profiler in
// AccessBatch-sized slices, so a reference profile is a serial replay with
// bounded memory instead of a fully captured stream.
type batcher struct {
	prof core.Profiler
	buf  []event.Access
}

func newBatcher(prof core.Profiler) *batcher {
	return &batcher{prof: prof, buf: make([]event.Access, 0, batchSize)}
}

func (b *batcher) Access(a event.Access) {
	b.buf = append(b.buf, a)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

func (b *batcher) flush() {
	if len(b.buf) > 0 {
		b.prof.AccessBatch(b.buf, nil)
		b.buf = b.buf[:0]
	}
}

// reference is a target's correctness reference, computed at set-up.
type reference struct {
	// digest is the SHA-256 of the DDP1 encoding of the dependence set a
	// serial replay over the exact store produces (sequential targets).
	digest [32]byte
	// erased is the dependence key set with thread IDs zeroed
	// (multi-threaded targets, whose thread attribution varies by run).
	erased map[dep.Key]struct{}
	// accesses is the bare-VM access count; unique the reference profile's
	// distinct dependences.
	accesses uint64
	unique   int
}

// computeReference profiles p serially over the exact store. A sequential
// target is replayed through AccessBatch; a multi-threaded one, whose
// threads call the hook concurrently, through the MT pipeline. Either way
// the bare VM supplies the access count.
func computeReference(p *minilang.Program, mt bool) (*reference, error) {
	info, err := vm.Run(p, nil, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference: bare run: %w", err)
	}
	ref := &reference{accesses: info.Accesses}
	if mt {
		res, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeMT, Workers: threads, Backend: "perfect"})
		if err != nil {
			return nil, fmt.Errorf("reference: MT profile: %w", err)
		}
		ref.erased = eraseThreads(res.Deps)
		ref.unique = res.Deps.Unique()
		return ref, nil
	}
	prof, err := core.New(core.Config{Mode: core.ModeSerial, Backend: "perfect", Meta: p.Meta})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	b := newBatcher(prof)
	if _, err := vm.Run(p, b, interp.Options{}); err != nil {
		return nil, fmt.Errorf("reference: replay run: %w", err)
	}
	b.flush()
	res := prof.Flush()
	if ref.digest, err = digest(res.Deps, p); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref.unique = res.Deps.Unique()
	return ref, nil
}

// digest hashes the DDP1 encoding of a dependence set.
func digest(s *dep.Set, p *minilang.Program) ([32]byte, error) {
	var buf bytes.Buffer
	if err := dep.Encode(&buf, s, p.Tab, nil); err != nil {
		return [32]byte{}, fmt.Errorf("encoding profile: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// eraseThreads returns the key set of s with both thread IDs zeroed.
func eraseThreads(s *dep.Set) map[dep.Key]struct{} {
	out := make(map[dep.Key]struct{}, s.Unique())
	s.Range(func(k dep.Key, _ dep.Stats) bool {
		k.SinkThread, k.SrcThread = 0, 0
		out[k] = struct{}{}
		return true
	})
	return out
}

// verify checks a profiled dependence set against the reference: the exact
// DDP1 digest for sequential targets; for multi-threaded ones the access
// count, zero races, and the thread-erased key set.
func (ref *reference) verify(s *dep.Set, p *minilang.Program, accesses uint64, mt bool) error {
	if !mt {
		d, err := digest(s, p)
		if err != nil {
			return err
		}
		if d != ref.digest {
			return fmt.Errorf("profile digest %x differs from the serial exact reference %x", d[:6], ref.digest[:6])
		}
		return nil
	}
	if accesses != ref.accesses {
		return fmt.Errorf("profiled %d accesses, bare VM counts %d", accesses, ref.accesses)
	}
	if r := races(s); r != 0 {
		return fmt.Errorf("%d races flagged on a race-free target", r)
	}
	got := eraseThreads(s)
	missing, extra := 0, 0
	for k := range ref.erased {
		if _, ok := got[k]; !ok {
			missing++
		}
	}
	for k := range got {
		if _, ok := ref.erased[k]; !ok {
			extra++
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("thread-erased dependence set differs from the reference: %d missing, %d extra", missing, extra)
	}
	return nil
}

// races counts dependences flagged with reversed timestamps.
func races(s *dep.Set) int {
	n := 0
	s.Range(func(_ dep.Key, st dep.Stats) bool {
		if st.Reversed {
			n++
		}
		return true
	})
	return n
}

// crossThread counts dependences whose endpoints ran on different threads.
func crossThread(s *dep.Set) int {
	n := 0
	s.Range(func(k dep.Key, _ dep.Stats) bool {
		if k.SinkThread != k.SrcThread {
			n++
		}
		return true
	})
	return n
}

// localSetup is everything a local workload needs before timing starts.
type localSetup struct {
	p        *minilang.Program
	rewrites []seedRewrite
	ref      *reference
}

// setupRepeats is how often a run sets up; setup_s is the median, and every
// repetition must agree on the reference.
const setupRepeats = 9

// setupTimes runs fn n times and records the median CPU seconds as setup_s
// (the wall-clock median goes to the record).
func setupTimes(rep *report, n int, fn func() error) error {
	var walls, cpus []float64
	for i := 0; i < n; i++ {
		var err error
		runtime.GC() // from a collected heap, like every timed operation
		wall, cpu := timed(func() { err = fn() })
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	rep.set("setup_s", median(cpus), "s")
	rep.info["setup_wall_s"] = median(walls)
	return nil
}

// setupLocal builds and seeds the target and computes its reference,
// setupRepeats times. extra, if not nil, runs inside each timed repetition
// once the target is ready: the daemon workload starts its daemon there.
func setupLocal(opt options, rep *report, extra func() error) (*localSetup, error) {
	var ls *localSetup
	err := setupTimes(rep, setupRepeats, func() error {
		p, rw, err := buildTarget(opt.workload, opt.scale, opt.seed)
		if err != nil {
			return err
		}
		ref, err := computeReference(p, opt.workload.mt)
		if err != nil {
			return err
		}
		if ls != nil && (ref.digest != ls.ref.digest || ref.accesses != ls.ref.accesses) {
			rep.check(fmt.Errorf("set-up reference is not deterministic: %x/%d then %x/%d",
				ls.ref.digest[:6], ls.ref.accesses, ref.digest[:6], ref.accesses))
		}
		ls = &localSetup{p: p, rewrites: rw, ref: ref}
		if extra != nil {
			return extra()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.info["seed_rewrites"] = ls.rewrites
	rep.info["vm_accesses"] = ls.ref.accesses
	rep.info["dep_unique"] = ls.ref.unique
	return ls, nil
}

// bareRun times one uninstrumented run of p, the slowdown denominator. It
// collects garbage first like every timed operation, but keeps the freed
// pages: a bare run allocates little, and refaulting the pages a profile
// left behind would make this small denominator track the host's page-fault
// cost instead of the VM.
func bareRun(p *minilang.Program) (wall, cpu float64, err error) {
	runtime.GC()
	wall, cpu = timed(func() { _, err = vm.Run(p, nil, interp.Options{}) })
	return wall, cpu, err
}

// sample is one timed profile: wall-clock and process CPU seconds, and the
// accesses it profiled.
type sample struct {
	wall, cpu float64
	events    uint64
}

// measure calls profile back to back on each of clients goroutines, each
// call followed by a bare VM run of p for the slowdown denominator, until the
// run's time is up and enough samples are in. Every call starts from a
// settled heap and is watched for its peak resident set. One untimed warm-up
// call comes first: pools and lazy runtime state fill there, not in the
// first sample.
func measure(opt options, rep *report, p *minilang.Program, clients int, profile func() (sample, error)) *opTimes {
	_, err := profile()
	rep.op(err)

	var (
		mu sync.Mutex
		t  opTimes
		wg sync.WaitGroup
	)
	enough := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(t.cpu) >= minSamples
	}
	soft, hard := deadlines(opt.seconds)
	steal := startSteal()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); (now.Before(soft) || !enough()) && now.Before(hard); now = time.Now() {
				settle()
				stop := watchRSS()
				s, err := profile()
				rss := stop()
				bwall, bcpu, berr := bareRun(p)
				mu.Lock()
				rep.op(err)
				if err == nil {
					t.profile(s.wall, s.cpu, rss, s.events)
				}
				if berr != nil {
					rep.op(fmt.Errorf("bare run: %w", berr))
				} else {
					t.bare(bwall, bcpu)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.info["steal_frac"] = steal()
	return &t
}

// runLocal measures an in-process workload: ddprof.Profile calls, each
// checked against the set-up reference.
func runLocal(opt options, rep *report) error {
	w := opt.workload
	ls, err := setupLocal(opt, rep, nil)
	if err != nil {
		return err
	}
	t := measure(opt, rep, ls.p, 1, func() (s sample, err error) {
		var res *ddprof.Result
		s.wall, s.cpu = timed(func() { res, err = ddprof.Profile(ls.p, w.config()) })
		if err != nil {
			return s, err
		}
		s.events = res.Accesses
		return s, ls.ref.verify(res.Deps, ls.p, res.Accesses, w.mt)
	})
	t.record(rep)
	return nil
}
