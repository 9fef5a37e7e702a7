package detres

import (
	"strings"
	"testing"
)

// TestTuneScriptCrossesPaths guards the oracle against vacuity: on
// every workload of the grid the script must actually drive the
// AutoTable to compact and back to flat, so the compared traces contain
// real decisions. A threshold change that leaves the table on one
// representation fails here, loudly, rather than silently weakening the
// grid tests below.
func TestTuneScriptCrossesPaths(t *testing.T) {
	cfg := testOracleConfig(t)
	for _, dist := range cfg.Dists {
		elems := OracleWorkload(dist, cfg.N, cfg.Seeds[0])
		trace := AutoTuneRunner{}.Run(elems, 1).Trace
		if !strings.Contains(trace, "kind=compact") || !strings.Contains(trace, "kind=flat") {
			t.Fatalf("%s: script does not cross both kinds, trace:\n%s", dist, trace)
		}
	}
}

// TestOracleGridTune is the adaptive-layer determinism gate: the
// kind-crossing script replayed per-element on an AutoTable across the
// seed × worker × fault-profile grid, asserting every cell agrees
// byte-for-byte on the quiescent state AND on the decision trace. A
// worker count or injected fault that shifts a single decision — even
// one producing the same final state — is a failure.
func TestOracleGridTune(t *testing.T) {
	if d := RunOracle(AutoTuneRunner{PerElement: true}, testOracleConfig(t)); d != nil {
		t.Fatal(d)
	}
}

// TestOracleCrossPathTune pins the per-element path to the bulk
// kernels: every grid cell of the per-element replay must match the
// bulk replay's state and trace. The policy's inputs are the op
// tallies and reported count deltas, so any gap between what
// Insert/Find/Delete report and what InsertAll/FindAll/DeleteAll
// report lands here.
func TestOracleCrossPathTune(t *testing.T) {
	if d := RunCrossOracle(AutoTuneRunner{}, AutoTuneRunner{PerElement: true}, testOracleConfig(t)); d != nil {
		t.Fatal(d)
	}
}
