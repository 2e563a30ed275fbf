package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

// BenchmarkRaceVerifyStage times the race-verification stage alone
// (`make bench-raceverify`): the seed-major rounds over the reports
// apache's first attack recipe leaves after ad-hoc annotation at full
// noise, sequentially, on the tree engine.
func BenchmarkRaceVerifyStage(b *testing.B) {
	w := workloads.Get("apache", workloads.NoiseFull)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	p := Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
	res, err := Run(p, Options{DisableRaceVerify: true, DisableVulnVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	mk := factory(p, "")
	rv := raceverify.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := supervise.New(supervise.Config{}).Stage("owl.raceverify")
		verifyRaces(st, rv, mk, res.Annotated, 1, nil)
		st.Close()
	}
}
