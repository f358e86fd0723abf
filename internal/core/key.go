package core

import (
	"fmt"

	"upcbh/internal/nbody"
)

// Key returns a canonical string identifying the simulation this Options
// value would run: two Options with equal keys produce statistically
// identical results (bit-identical at one thread, where simulation is
// deterministic). The experiment harness uses it to memoize runs shared
// across tables and figures.
//
// Defaulted fields are normalized exactly as validate() normalizes them
// (N1/N2/N3, SubspaceAlpha), so an explicit default and a zero value that
// validate() would fill in map to the same key.
func (o Options) Key() string {
	n1, n2, n3 := o.N1, o.N2, o.N3
	if n1 <= 0 {
		n1 = 4
	}
	if n2 <= 0 {
		n2 = 4
	}
	if n3 <= 0 {
		n3 = 4
	}
	alpha := o.SubspaceAlpha
	if alpha <= 0 {
		alpha = 2.0 / 3.0
	}
	scn := o.Scenario
	if scn == "" {
		scn = nbody.DefaultScenario
	}
	return fmt.Sprintf(
		"n=%d;steps=%d;warm=%d;theta=%.17g;eps=%.17g;dt=%.17g;seed=%d;scn=%s;mode=%s;level=%s;"+
			"alias=%t;vec=%t;async=%d/%d/%d;alpha=%.17g;verify=%t;tcache=%t;tbuf=%d;%s",
		o.Bodies, o.Steps, o.Warmup, o.Theta, o.Eps, o.Dt, o.Seed, scn, o.ExecMode, o.Level,
		o.AliasLocalCells, o.VectorReduce, n1, n2, n3, alpha, o.Verify, o.TransparentCache,
		o.testBufferCap, o.Machine.Key())
}
