package main

import (
	"io"
	"testing"
)

func rec(workload string, m machine, p50 float64) record {
	var r record
	r.Stamp.Machine = m
	r.Stamp.Workload = workload
	r.Stamp.Scale = 1
	r.Metrics = map[string]metric{"profile_cpu_s_p50": {Value: p50, Unit: "s"}}
	r.Correct = true
	r.Attempted = 100
	return r
}

// The comparison passes, fails, leaves unresolved, or — for results from
// different machine classes or target sizes — refuses to judge.
func TestCompareVerdicts(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundDef{{Name: "profile_cpu_s_p50", Unit: "s", Better: "lower", Bound: 0.1}}}

	a := machine{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0"}
	b := a
	b.NProc = 8
	with := func(r record, edit func(*record)) record {
		edit(&r)
		return r
	}
	incorrect := with(rec("w", a, 1.0), func(r *record) { r.Correct = false })
	failing := with(rec("w", a, 1.0), func(r *record) { r.Failed = 1 })
	rescaled := with(rec("w", a, 1.0), func(r *record) { r.Stamp.Scale = 2 })

	base := []record{rec("w", a, 1.00), rec("w", a, 1.02), rec("w", a, 0.98)}
	noisy := []record{rec("w", a, 0.7), rec("w", a, 1.0), rec("w", a, 1.3), rec("w", a, 1.0)}
	cases := []struct {
		name       string
		base, head []record
		want       int
	}{
		{"within bound", base, []record{rec("w", a, 1.05), rec("w", a, 1.08)}, compareOK},
		{"regression", base, []record{rec("w", a, 1.2), rec("w", a, 1.3)}, compareFail},
		{"head record incorrect", base, []record{rec("w", a, 1.0), incorrect}, compareFail},
		{"head fails more operations", base, []record{rec("w", a, 1.0), failing}, compareFail},
		{"equal failure share", []record{failing, failing}, []record{failing}, compareOK},
		{"base spread wider than the bound", noisy, []record{rec("w", a, 1.3)}, compareUnresolved},
		{"regression beats unresolved", noisy, []record{incorrect}, compareFail},
		{"other machine class", base, []record{rec("w", b, 1.0)}, compareRefused},
		{"mixed classes on one side", base, []record{rec("w", a, 1.0), rec("w", b, 1.0)}, compareRefused},
		{"other scale", base, []record{rescaled}, compareRefused},
		{"mixed scales on one side", []record{rec("w", a, 1.0), rescaled}, []record{rec("w", a, 1.0)}, compareRefused},
	}
	for _, c := range cases {
		if got := compare(spec, c.base, c.head, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
