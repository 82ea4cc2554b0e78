package main

import (
	"reflect"
	"testing"

	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/vm"
)

// The seed rewrites only the targets' *_seed input constants: restoring
// those constants gives back a program deeply equal to the unseeded build.
func TestReseedTouchesOnlySeedConstants(t *testing.T) {
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			plain, err := catalogProgram(w, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			seeded, err := catalogProgram(w, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			rw := reseed(seeded, 42)
			if len(rw) == 0 {
				t.Fatal("no seed declarations rewritten")
			}
			for _, r := range rw {
				if r.New < 0 || r.New >= lcgModulus || r.New != float64(int64(r.New)) {
					t.Errorf("%s: seed %v outside the LCG's exact range", r.Name, r.New)
				}
			}
			if reflect.DeepEqual(plain.Funcs, seeded.Funcs) {
				t.Fatal("seeded program equals the original")
			}
			i := 0
			visitSeedDecls(seeded, func(d *minilang.DeclStmt, c *minilang.ConstExpr) {
				if c.V != rw[i].New {
					t.Errorf("%s = %v, rewrite list says %v", d.Name, c.V, rw[i].New)
				}
				d.Init = &minilang.ConstExpr{V: rw[i].Old}
				i++
			})
			if !reflect.DeepEqual(plain, seeded) {
				t.Error("programs differ beyond the seed constants")
			}
		})
	}
}

// The same seed gives the same inputs and access count; another seed gives
// other inputs.
func TestSeedDeterminism(t *testing.T) {
	w, err := findWorkload("dense-serial")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (uint64, []seedRewrite) {
		p, rw, err := buildTarget(w, 0.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		info, err := vm.Run(p, nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return info.Accesses, rw
	}
	a1, r1 := run(7)
	a2, r2 := run(7)
	_, r3 := run(8)
	if a1 != a2 || !reflect.DeepEqual(r1, r2) {
		t.Errorf("seed 7 twice: %d/%v vs %d/%v", a1, r1, a2, r2)
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("seeds 7 and 8 gave the same inputs")
	}
}
