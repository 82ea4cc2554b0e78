package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"ddprof"
	"ddprof/internal/minilang"
	"ddprof/internal/workloads"
)

// workload is one benchmark input: a seeded target program and the way it
// is profiled.
type workload struct {
	name string
	why  string
	// target names the program in the workloads catalog; mt selects its
	// pthread variant.
	target string
	mt     bool
	// scale is the catalog size multiplier of the measured runs.
	scale float64
	// mode, workers and backend configure the local profile (ddprof.Profile)
	// or, for remote workloads, the session the client requests.
	mode    ddprof.Mode
	workers int
	backend string
	remote  bool
}

// threads is the target-thread count of the multi-threaded workload and the
// worker count of every parallel pipeline: one per core of the 2-core
// reference machine.
const threads = 2

var workloadTable = []workload{
	{
		name:   "dense-serial",
		why:    "sequential kmeans profiled in process by the serial profiler over the default signature: dependence-dense, VM+hook+engine bound; tail = p90 of >=100 profiles",
		target: "kmeans", scale: 0.5,
		mode: ddprof.ModeSerial,
	},
	{
		name:   "strided-parallel",
		why:    "sequential rgbyuv through the 2-worker parallel pipeline over the exact store: large strided footprint, routing, stride compression, merge; tail = p90 of >=100 profiles",
		target: "rgbyuv", scale: 0.6,
		mode: ddprof.ModeParallel, workers: threads, backend: "perfect",
	},
	{
		name:   "threads-remote",
		why:    "2-thread kmeans streamed to an in-process ddprofd over a unix socket while open-loop queries hit the live session; tail = p90 of >=100 sessions",
		target: "kmeans", mt: true, scale: 0.8,
		mode: ddprof.ModeMT, workers: threads, remote: true,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is the ddprof.Config of the workload's local profile.
func (w workload) config() ddprof.Config {
	return ddprof.Config{Mode: w.mode, Workers: w.workers, Backend: w.backend}
}

// seedRewrite records one input constant the seed replaced.
type seedRewrite struct {
	Name string  `json:"name"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
}

// catalogProgram builds the workload's program at scale, unseeded.
func catalogProgram(w workload, scale float64) (*minilang.Program, error) {
	cat, ok := workloads.ByName(w.target)
	if !ok {
		return nil, fmt.Errorf("workload catalog has no %q", w.target)
	}
	cfg := workloads.Config{Scale: scale, Threads: threads}
	if w.mt {
		return cat.BuildParallel(cfg), nil
	}
	return cat.Build(cfg), nil
}

// buildTarget builds the workload's program at scale and seeds its inputs.
func buildTarget(w workload, scale float64, seed int64) (*minilang.Program, []seedRewrite, error) {
	p, err := catalogProgram(w, scale)
	if err != nil {
		return nil, nil, err
	}
	rw := reseed(p, seed)
	if len(rw) == 0 {
		return nil, nil, fmt.Errorf("target %q has no *_seed input declarations to seed", w.target)
	}
	return p, rw, nil
}

// lcgModulus is the modulus of the workloads' in-program LCG; seeds below it
// keep every intermediate product exactly representable.
const lcgModulus = 244944

// reseed rewrites the constant initializer of every `<array>_seed`
// declaration — the LCG seeds initArrayLCG declares — to a value derived
// from seed and the variable's name. Nothing else in the program changes:
// the loop structure is fixed, only the data-dependent addresses and
// branches move.
func reseed(p *minilang.Program, seed int64) []seedRewrite {
	var out []seedRewrite
	visitSeedDecls(p, func(d *minilang.DeclStmt, c *minilang.ConstExpr) {
		h := fnv.New64a()
		h.Write([]byte(d.Name))
		v := float64(splitmix(uint64(seed)^h.Sum64()) % lcgModulus)
		out = append(out, seedRewrite{Name: d.Name, Old: c.V, New: v})
		d.Init = &minilang.ConstExpr{V: v}
	})
	return out
}

// visitSeedDecls calls fn for every scalar declaration named `*_seed` whose
// initializer is a constant, in every function of p. Function bodies are
// visited in sorted name order so the rewrite list is deterministic.
func visitSeedDecls(p *minilang.Program, fn func(*minilang.DeclStmt, *minilang.ConstExpr)) {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var walk func([]minilang.Stmt)
	walk = func(stmts []minilang.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *minilang.DeclStmt:
				if c, ok := s.Init.(*minilang.ConstExpr); ok && strings.HasSuffix(s.Name, "_seed") {
					fn(s, c)
				}
			case *minilang.ForStmt:
				walk(s.Body)
			case *minilang.WhileStmt:
				walk(s.Body)
			case *minilang.IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *minilang.SpawnStmt:
				walk(s.Body)
			case *minilang.LockStmt:
				walk(s.Body)
			}
		}
	}
	for _, n := range names {
		walk(p.Funcs[n].Body)
	}
}

// splitmix is the SplitMix64 finalizer: a cheap bijective scrambler so
// neighbouring seeds give unrelated inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
