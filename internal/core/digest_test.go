package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"testing"

	"upcbh/internal/arena"
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

// checkpointRegionDigest pins the checkpoint container's payload: for
// every simulate configuration of TestSimulateDigest16T, SHA-256 over the
// "state" and "refs" regions (name, then bytes) and then "heap" followed
// by the "bodies" region's bytes, after step 1 of a 3-step run. Those are
// the owned records in refs order, which the earlier "heap" region held
// at the refs' offsets, so the digests outlived that layout. For native
// at T threads, SHA-256 over the "bodies"
// region and, separately, over the state region's JSON key and delimiter
// sequence (its values carry wall-clock times, so only its shape is
// pinned). The header, which carries the host env, is excluded.
var checkpointRegionDigest = map[string]string{
	"baseline/1pn":              "9d7fb4fe0336a3b87c7ab176e792cc026e3fd48de2057725a1ee02072e33d5d1",
	"scalars/1pn":               "6d4a82ffb24566744732a52784631271900ecaacd248a6cd01006f3902075c3e",
	"redistribute/1pn":          "4d9e96313a0bd49615eb895a2b7a035840000a8a552817787aee0439d2290bc2",
	"cache/1pn":                 "292a53219e438e2bc34e6042f2af17df67958add43284030411c67e826dccffc",
	"merged/1pn":                "8ff174d90c3e52ce6f7ecafc46909c57a784fadbd3db3b8af88a854082234d4f",
	"async/1pn":                 "3fd9af044455b188ac364a470bbd4a75c55714dcb34be5de57661e1ac3c45eec",
	"subspace/1pn":              "ca11db7bf46e28c583b11df922b9c3356cc36e7e11c46d69d3349059602d2564",
	"baseline/4pn":              "18c0ef7b343c3572faa8c1cfe4306279f34146a19c43dfa2490722426674f121",
	"scalars/4pn":               "712d304c556783a588f39c75679500641748a0b656aa7e5b2d14ca281326e606",
	"redistribute/4pn":          "45edf499f686145bb6f7af05f000f78d9e86aff98a52462f594e21dd09cb6449",
	"cache/4pn":                 "d2dfb0eb53d25573e95e942ae43cdfbb88779db5a28b79f6e8c538196dd5dfb5",
	"merged/4pn":                "334534544d9303bba4285af44351d9bf6b083a14a9fba10d8e50de0a3e653f56",
	"async/4pn":                 "0d2c29806b200f68ca30a63cfc2875cc02d22dd1dde8d414baa0c6df026ee31e",
	"subspace/4pn":              "2519cc6043539c73e5a078df46005ac3705729c89daf7333ade35db440a34d44",
	"baseline/4pn-pthreads":     "2aadfaaa1eb931c55e5870055b1e6a3b60f082f0057b072d53ca4fc2474bd401",
	"scalars/4pn-pthreads":      "4d66d60cbd8a2cc48756acb08d3cdb0f0b3e654b5bf145f3785659fe4c460d32",
	"redistribute/4pn-pthreads": "73775d109343d39250eb7014896121502d2d4cfda49081f2204d11541994aed5",
	"cache/4pn-pthreads":        "b70b53ead91df59a062b2f6467e4577aab1000000273771bd9972be81276faec",
	"merged/4pn-pthreads":       "3a49c9c643ef7890e2e3e42ae04ae788b2e429ef03b487838ce35bc2ac7be440",
	"async/4pn-pthreads":        "8bfdadeab17776372d8ad08c37ea75dccd09ad1f169140dc39f93eef5d1ffba4",
	"subspace/4pn-pthreads":     "323b4c24b3bd9329dbedef04345b4cdf634dea0dc75e81a978cc6c0d8e8df8d0",
	"native/T1/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T1/state-keys":      "9a4340f0799d5e58cf4abba99087c36dd8c9f77256347efac4a7626ab747f4e2",
	"native/T2/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T2/state-keys":      "f0d44de81d46b556f3b822da97859118f41ebe44a167451d78a626292df925cc",
	"native/T4/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T4/state-keys":      "1b6df5e6b6f7cb32705cd6d876bc8e31c91140fe05a5c151bd2f5ac2d385f163",
}

func TestCheckpointRegionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("21 simulated 16-thread steps")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point")
	}
	container := func(t *testing.T, opts Options) *arena.Checkpoint {
		t.Helper()
		sim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Release()
		if err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sim.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		c, err := arena.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	check := func(t *testing.T, name string, h hash.Hash) {
		t.Helper()
		if got := hex.EncodeToString(h.Sum(nil)); got != checkpointRegionDigest[name] {
			t.Errorf("%s: digest %s, want %s", name, got, checkpointRegionDigest[name])
		}
	}
	region := func(t *testing.T, c *arena.Checkpoint, h hash.Hash, name string) []byte {
		t.Helper()
		data, ok := c.Region(name)
		if !ok {
			t.Fatalf("container has no %q region", name)
		}
		h.Write([]byte(name))
		h.Write(data)
		return data
	}
	for _, sh := range []struct {
		name     string
		perNode  int
		pthreads bool
	}{{"1pn", 1, false}, {"4pn", 4, false}, {"4pn-pthreads", 4, true}} {
		for level := LevelBaseline; level < NumLevels; level++ {
			name := level.String() + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				opts := DefaultOptions(2048, 16, level)
				opts.Machine = machine.MustNew(16, sh.perNode, sh.pthreads, machine.Power5())
				opts.Steps = 3
				opts.Seed = 1
				c := container(t, opts)
				h := sha256.New()
				region(t, c, h, regState)
				region(t, c, h, regRefs)
				// The owned records in refs order, hashed under the name
				// of the heap region that carried them before "bodies".
				bodies, ok := c.Region(regBodies)
				if !ok {
					t.Fatalf("container has no %q region", regBodies)
				}
				h.Write([]byte(regHeap))
				h.Write(bodies)
				check(t, name, h)
			})
		}
	}
	for _, threads := range []int{1, 2, 4} {
		name := fmt.Sprintf("native/T%d", threads)
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions(2048, threads, LevelMergedBuild)
			opts.ExecMode = ModeNative
			opts.Steps = 3
			opts.Seed = 1
			c := container(t, opts)
			h := sha256.New()
			region(t, c, h, regBodies)
			check(t, name+"/bodies", h)
			state := region(t, c, sha256.New(), regState)
			h = sha256.New()
			if err := jsonShape(json.NewDecoder(bytes.NewReader(state)), h); err != nil {
				t.Fatal(err)
			}
			check(t, name+"/state-keys", h)
		})
	}
}

// jsonShape writes the next JSON value's object keys and delimiters, in
// order, to w: its shape without its scalar values.
func jsonShape(dec *json.Decoder, w io.Writer) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok {
		return nil
	}
	fmt.Fprintf(w, "%v", d)
	for dec.More() {
		if d == '{' {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%q:", key)
		}
		if err := jsonShape(dec, w); err != nil {
			return err
		}
	}
	end, err := dec.Token()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v", end)
	return nil
}
