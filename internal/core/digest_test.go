package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"upcbh/internal/machine"
)

// simulateDigest16T pins, byte for byte, what the benchmark's
// simulate-levels workload computes: SHA-256 over json.Marshal(Result)
// followed by json.Marshal(Result.Bodies) — phase tables, per-thread
// breakdowns, operation and scheduler counts, final body state — for
// n = 2048, 16 threads, 3 steps, seed 1, at every level on three machine
// shapes (1 thread per node: every pair crosses the network; 4 per node
// as processes: loopback inside a node; 4 per node under -pthreads:
// shared memory inside a node, CPU factor on every compute charge). The
// phase goldens in golden_test.go hold 1 and 4 threads to 1e-12; this
// holds the 16-thread configuration to the bit, so a change to how a
// charge is *computed* (as opposed to what is charged) cannot move a
// clock unnoticed. Captured before the per-class message-cost table and
// the inlined pair kernel landed; a mismatch prints the digest found.
var simulateDigest16T = map[string]string{
	"baseline/1pn":              "f43f64549061dd82475d59c4ce90fba77ca7fab920597c0bfd4270ab9f5c7582",
	"scalars/1pn":               "c980eda567c30593582eff8820dea3a3b90e7262ee5461d34f4ce59cf98c3515",
	"redistribute/1pn":          "a7aa88df679259250902d821a478f316136a915c8634eecfae97e2547687f693",
	"cache/1pn":                 "3f9ba361c925ec66137a984ef6aa339a81be3dbb212011b86359760422ccdf23",
	"merged/1pn":                "1f6f27fdb883e0f61abd9fd0bd6b2e5f1ec13c8a2b22515a557c4587ae93fda0",
	"async/1pn":                 "de5ac728b358fdf488939884133c72e606d85959a7401c0e004834d3b930150f",
	"subspace/1pn":              "8aec31428057fbcae049c36faef983bd36808c15eb45a83e29149eab410d497a",
	"baseline/4pn":              "d264e7c362a3e1f65aaa42f6b404e88c87187a470678a34157dec863c0b0763b",
	"scalars/4pn":               "f2e9a2c9b1a4665c3be403b8d1ce34d0f29b441afb66e046fcb1bf54aa0f5056",
	"redistribute/4pn":          "f6e149a7bcd27f8d8648b68767435e4ad185035912b4dfbaaa7e0f16545f0996",
	"cache/4pn":                 "26a430d6f0aaf989658393eed7cef222ba0e6a574de07b939b4cc2a6027ee443",
	"merged/4pn":                "fd2d8e2fe424021318e364368776a4bb2c3744d72a6ca2fa8a82080c006a2876",
	"async/4pn":                 "ec927dd1857bae87063044c7d6d55598538ecf391d2cbd98be2576ae94c28ec3",
	"subspace/4pn":              "85ca4c2a7cccb16a6f2fb3e87f4f24141544f66ba38fe7b9ab155c0531aa0103",
	"baseline/4pn-pthreads":     "6ca0c49009a61a576e89cade0a280353b2410d5d9ba62a958aa4d76799f9fb1c",
	"scalars/4pn-pthreads":      "f909d5c35df1967df807863c63df56aa0dd05d6f48ca295506d3bd99678e1287",
	"redistribute/4pn-pthreads": "99ab479231b0e472cb2af550ce1f0524dafbd058a3d1baea2f4a748697e098a8",
	"cache/4pn-pthreads":        "7423627cade4429d3f961a651f5bef9b89197b800d9378c1e408df9715a9e839",
	"merged/4pn-pthreads":       "6250c3009c8e9aefaaa4b3a6039b9ad641b4a92f8fc0572e76df29981602a6cb",
	"async/4pn-pthreads":        "1e05e23f36c6b994e5e20630ffd6e0031a8295c2a8d485cb620eae32caff1923",
	"subspace/4pn-pthreads":     "d421df0b7006da4c82a89397d70e9734ff0b066c2bb3b8f90db94c7ab646e886",
}

func TestSimulateDigest16T(t *testing.T) {
	if testing.Short() {
		t.Skip("63 simulated 16-thread steps")
	}
	if runtime.GOARCH != "amd64" {
		// The compiler fuses x*y+z on arm64, ppc64le, s390x and riscv64;
		// the digests are of amd64's unfused arithmetic.
		t.Skip("digests are pinned for amd64 floating point")
	}
	shapes := []struct {
		name     string
		perNode  int
		pthreads bool
	}{
		{"1pn", 1, false},
		{"4pn", 4, false},
		{"4pn-pthreads", 4, true},
	}
	for _, sh := range shapes {
		for level := LevelBaseline; level < NumLevels; level++ {
			name := level.String() + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				opts := DefaultOptions(2048, 16, level)
				opts.Machine = machine.MustNew(16, sh.perNode, sh.pthreads, machine.Power5())
				opts.Steps = 3
				opts.Seed = 1
				res := runOnce(t, opts)
				h := sha256.New()
				for _, v := range []any{res, res.Bodies} {
					raw, err := json.Marshal(v)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(raw)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != simulateDigest16T[name] {
					t.Errorf("digest %s, want %s", got, simulateDigest16T[name])
				}
			})
		}
	}
}
