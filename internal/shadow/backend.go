package shadow

import (
	"fmt"

	"ddprof/internal/sig"
)

// Backend registrations: "shadow" (the classical exact paged store) and
// "hybrid" (exact heavy-hitter tier over a signature tail). Both are
// resolved through the sig registry from spec strings like
// "hybrid:slots=1m,exact=4096"; internal/core imports this package for the
// side effect so every binary and ddprofd session can select them.
func init() {
	sig.Register(sig.Backend{
		Name:  "shadow",
		Exact: true,
		Doc:   "two-level paged shadow memory (§III-B comparison baseline); exact, memory grows with the address footprint",
		New: func(sp sig.Spec) (sig.Store, error) {
			if err := sp.Only(); err != nil {
				return nil, err
			}
			return New(), nil
		},
	})
	sig.Register(sig.Backend{
		Name:  "hybrid",
		Exact: false,
		Doc:   "exact paged tier for promoted heavy hitters + signature tail; params slots, exact (0 = unbounded), promote, sketch",
		New: func(sp sig.Spec) (sig.Store, error) {
			if err := sp.Only("slots", "exact", "promote", "sketch"); err != nil {
				return nil, err
			}
			slots, err := sp.Int("slots", sp.SlotsDefault(1<<20))
			if err != nil {
				return nil, err
			}
			if slots < 1 {
				return nil, fmt.Errorf("sig: backend hybrid: slots = %d; want >= 1", slots)
			}
			exact, err := sp.Int("exact", defaultExactBudget)
			if err != nil {
				return nil, err
			}
			if exact < 0 {
				return nil, fmt.Errorf("sig: backend hybrid: exact = %d; want >= 0 (0 = unbounded exact tier)", exact)
			}
			promote, err := sp.Int("promote", defaultPromoteAfter)
			if err != nil {
				return nil, err
			}
			if promote < 1 {
				return nil, fmt.Errorf("sig: backend hybrid: promote = %d; want >= 1", promote)
			}
			sketch, err := sp.Int("sketch", defaultSketchCap)
			if err != nil {
				return nil, err
			}
			return NewHybrid(slots, exact, promote, sketch), nil
		},
		EstimateBytes: func(sp sig.Spec) uint64 {
			slots, err := sp.Int("slots", sp.SlotsDefault(1<<20))
			if err != nil || slots < 1 {
				return 0
			}
			exact, err := sp.Int("exact", defaultExactBudget)
			if err != nil || exact <= 0 {
				return 0 // unbounded exact tier: no promise to make
			}
			sketch, err := sp.Int("sketch", defaultSketchCap)
			if err != nil {
				return 0
			}
			// Worst case: every resident on its own page, plus a fully
			// touched tail and the promotion bookkeeping.
			return uint64(exact)*(hpageBytes+16) + uint64(sketch)*32 + sig.MaxSignatureBytes(slots)
		},
	})
}

const (
	// defaultExactBudget caps the resident exact addresses when the spec
	// does not say: generous enough for the heavy-hitter head of real
	// streams, small enough that the exact tier stays a few MiB.
	defaultExactBudget = 4096
	// defaultPromoteAfter is the sketched access count at which a tail
	// address self-promotes.
	defaultPromoteAfter = 8
	// defaultSketchCap bounds the candidate sketch; candidates must exceed
	// 1/cap of the tail stream to stay sketched.
	defaultSketchCap = 512
)
