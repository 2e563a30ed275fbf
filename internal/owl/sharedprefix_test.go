package owl

import (
	"fmt"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// hintFields renders every field of a hint the pipeline reports.
func hintFields(h *raceverify.Hint) string {
	return fmt.Sprintf("report=%s verified=%v attempts=%d read=%d write=%d var=%q null=%v uninit=%v",
		h.Report.ID(), h.Verified, h.Attempts, h.ReadVal, h.WriteVal, h.VarName, h.WritesNull, h.ReadsUninitialized)
}

// checkSharedPrefix is the shared-vs-fresh differential gate for one
// noise level and engine. Over every recipe of every registered
// workload it checks that
//   - the pipeline's seed-major, shared-prefix hints equal, field by
//     field, those of raceverify.Verify run from step 0; and
//   - for every seed, each report's attempt resumed from the seed's
//     Prefix ends at the same verifier-loop iteration, with the same
//     verdict and hint, as the same attempt run from step 0.
//
// It returns how many attempts resumed from a fork and how many were
// decided without a run, so callers can require the shared paths to
// have been exercised at all.
func checkSharedPrefix(t *testing.T, lvl workloads.NoiseLevel, eng interp.Engine) (resumed, unrun int) {
	t.Helper()
	rv := raceverify.New()
	for _, name := range workloads.Names() {
		w := workloads.Get(name, lvl)
		for _, rec := range w.Recipes {
			p := Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
			res, err := Run(p, Options{Engine: eng, DisableVulnVerify: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, rec.Name, err)
			}
			if len(res.Hints) != len(res.Annotated) {
				t.Fatalf("%s/%s: %d hints for %d reports", name, rec.Name, len(res.Hints), len(res.Annotated))
			}
			mk := factory(p, eng)
			for i, rep := range res.Annotated {
				fresh, err := rv.Verify(mk, rep)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, rec.Name, err)
				}
				if got, want := hintFields(res.Hints[i]), hintFields(fresh); got != want {
					t.Errorf("%s/%s report %d:\n  shared: %s\n  fresh:  %s", name, rec.Name, i, got, want)
				}
			}
			for seed := 1; seed <= rv.Seeds(); seed++ {
				prefix, err := rv.Prefix(mk, seed, res.Annotated)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", name, rec.Name, seed, err)
				}
				for i, rep := range res.Annotated {
					if !raceverify.Verifiable(rep) {
						continue
					}
					hs, hf := &raceverify.Hint{Report: rep}, &raceverify.Hint{Report: rep}
					shared, err := rv.Attempt(mk, seed, prefix, hs)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := rv.Attempt(mk, seed, nil, hf)
					if err != nil {
						t.Fatal(err)
					}
					if shared.Caught != fresh.Caught || shared.End != fresh.End || hintFields(hs) != hintFields(hf) {
						t.Errorf("%s/%s seed %d report %d: resumed from %d: caught=%v end=%d %s; from step 0: caught=%v end=%d %s",
							name, rec.Name, seed, i, shared.From, shared.Caught, shared.End, hintFields(hs), fresh.Caught, fresh.End, hintFields(hf))
					}
					switch {
					case shared.Unrun:
						unrun++
					case shared.From > 0:
						resumed++
					}
				}
			}
		}
	}
	return resumed, unrun
}

// TestSharedPrefixMatchesFresh runs the differential gate at light
// noise under both engines. The full-noise run is `make shared-prefix`.
func TestSharedPrefixMatchesFresh(t *testing.T) {
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineBytecode} {
		t.Run(string(eng), func(t *testing.T) {
			resumed, unrun := checkSharedPrefix(t, workloads.NoiseLight, eng)
			t.Logf("%d attempts resumed from a fork, %d decided without a run", resumed, unrun)
			if resumed == 0 {
				t.Fatal("no attempt resumed from a fork: the shared path went untested")
			}
		})
	}
}
