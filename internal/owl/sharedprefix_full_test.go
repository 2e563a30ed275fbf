//go:build fullnoise

package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestSharedPrefixMatchesFreshFullNoise runs the shared-vs-fresh
// differential gate at full noise, where the shared stretch is about 40%
// of all verifier steps. It takes about a minute, so it sits behind the
// fullnoise build tag: run it with `make shared-prefix`.
func TestSharedPrefixMatchesFreshFullNoise(t *testing.T) {
	resumed, unrun := checkSharedPrefix(t, workloads.NoiseFull, interp.EngineTree)
	t.Logf("%d attempts resumed from a fork, %d decided without a run", resumed, unrun)
	if resumed == 0 {
		t.Fatal("no attempt resumed from a fork: the shared path went untested")
	}
}
