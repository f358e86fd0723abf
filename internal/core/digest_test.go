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
	"baseline/1pn":              "9f1675692f7d53b3d242817c30ae4abc7114c96166a6a551c2454c13d42e241f",
	"scalars/1pn":               "c4a4d757008c941bb0be8826e814862a4e734c3e9d1a6e587e6466cba8a93e18",
	"redistribute/1pn":          "b7a80f95e2dd16b99287da1105f6956b7a8c089e4653033945ed0ba37e72a5e9",
	"cache/1pn":                 "8eeeb416e9bcf4cf9829ee96e6a25b127ebb5371fbe69d07b6b1985ae9fb5009",
	"merged/1pn":                "9e9d9fe4aa60cc868a10ab84b47d371482c47a585e11d44546d9497501a9e4d4",
	"async/1pn":                 "7b56e57308e9e394cd8d24c581d2ecf6f9498f9d26d075ec33299b84fea33095",
	"subspace/1pn":              "b2bf39a84c2f973cbfcd107abcb04dd4874954c85a53114863cb0bd67bbe2e06",
	"baseline/4pn":              "a0e8139b9d0a743e469b2e9d6b69cc0bbaa0d899636b19a5e18c207f4d13e8f5",
	"scalars/4pn":               "f0b124cc8cc429ea3aae6c43fbb26c99960636c79dd03acbf74ad689c059870f",
	"redistribute/4pn":          "cbdb01c919468e4bd7cfb6dfeaecfe4bfc952e679db7112fcfc5a9b4bff4a68f",
	"cache/4pn":                 "ae06f9f44e4a1db4aab0ccbccb4a60451484f06beb5d6f28da49d51b0ed5552d",
	"merged/4pn":                "d0f3caa2166714fe3954035d96d202f49c42e373e20455140e1cd5d91dc4dcf6",
	"async/4pn":                 "31145d9452fd2d8a437f4690f94fe31809ecd39141cb16682cd85c1aa429a1b7",
	"subspace/4pn":              "d631daa50647cbf250af331c962d1fefb4550e5aacdbea4271e6a8a006afb054",
	"baseline/4pn-pthreads":     "89a7ffc07061b2d58e362b1a4d4bc95985fa9c864636ca06d91c3177584699ef",
	"scalars/4pn-pthreads":      "37b229378595130666e9cc87dd3ae45755d00804597a4cdb5e82d2fccb59c9c0",
	"redistribute/4pn-pthreads": "27f76d71af92c59b71aabe1f815197e8b035545c50b8ee1ee3e99c03d5cc03d2",
	"cache/4pn-pthreads":        "b380c39605422ab667628f7695079688832a3f40bd37e38723cf764c6ac78637",
	"merged/4pn-pthreads":       "f8f4454cb094aaa51495957cd457b759fbc88bc9c35df0ea9f2d4afa11f955b2",
	"async/4pn-pthreads":        "99ad7fff2b0998e6c923be210dba26bb5b59e80a1a043998f95e524c47b8353e",
	"subspace/4pn-pthreads":     "ff5ef8db38cd829e53d429f1b4f564fee4674b82618c1992bb794a6881b9e1e6",
	"native/T1/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T1/state-keys":      "7d65d0dd6612e308f5997d3d49ca58dac6eae764246de69fc56d718e03ed7c87",
	"native/T2/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T2/state-keys":      "0b1d9ee6d4a810fce384b070d050064c2070117e5d15c36e3a0c432d60c3b898",
	"native/T4/bodies":          "b83ec9c50f087003e9c169777c1a7629b1ffb4e400448dcec2f98cf1cac5cf83",
	"native/T4/state-keys":      "6e8d986c21f08e5f9221e743baaaa0e2febeb32b2c33e37ab0365f0f3d8ba49d",
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
