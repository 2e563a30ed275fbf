package main

import "testing"

// TestPerturbedExpectationFailsRun is the correctness check's
// self-test: a triage-full run over one model matches the committed
// expectations, and the same run reports a mismatch (so the benchmark
// exits 1) once that model's expectation is off by one report.
func TestPerturbedExpectationFailsRun(t *testing.T) {
	expect, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	spec := triageFull
	spec.models = []string{"libsafe"}
	key := job{Model: "libsafe"}.key(spec.name)
	for _, tc := range []struct {
		name   string
		expect map[string]verdict
		fails  bool
	}{
		{"committed", expect, false},
		{"perturbed", perturbed(expect, key), true},
		{"missing", map[string]verdict{}, true},
	} {
		out, err := runBatch(spec, config{workload: spec.name, seed: 1, seconds: 0.001, expect: tc.expect})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.attempted != 1 || out.failed != 0 {
			t.Fatalf("%s: attempted %d, failed %d; want one clean job", tc.name, out.attempted, out.failed)
		}
		if got := len(out.mismatches) > 0; got != tc.fails {
			t.Fatalf("%s expectations: mismatches %q, want failure=%v", tc.name, out.mismatches, tc.fails)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, val, ok := tail(xs)
	if !ok || pct != 90 || val != 90 {
		t.Fatalf("tail of 1..100 = p%d %v %v, want p90 90 true", pct, val, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("ten samples gave a tail")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
	}
	self := tr.selfSeconds()
	if got, want := self["job"], 50e-9; got < want*0.999 || got > want*1.001 {
		t.Fatalf("job self time = %v, want %v", got, want)
	}
}
