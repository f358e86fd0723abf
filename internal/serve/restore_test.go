package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"upcbh/internal/arena"
	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// call sends one request and answers the response's status and body.
func call(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// callOK is call for a request that must answer want, decoding its JSON
// answer into out (when out is not nil).
func callOK(t *testing.T, method, url string, body []byte, want int, out any) []byte {
	t.Helper()
	code, raw := call(t, method, url, body)
	if code != want {
		t.Fatalf("%s %s: %d %s, want %d", method, url, code, raw, want)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v in %.200s", method, url, err, raw)
		}
	}
	return raw
}

// movedBody reseals ckpt with its first body record's Pos.X moved by
// 0.5, under the same key and step and with a valid CRC: an edited
// upload that passes every format check. It answers the new container,
// the moved body's ID and its new Pos.X.
func movedBody(t *testing.T, ckpt []byte) ([]byte, int32, float64) {
	t.Helper()
	c, err := arena.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := c.Region("bodies")
	if !ok || len(rec) < int(unsafe.Sizeof(nbody.Body{})) {
		t.Fatalf("container has no body records (%d bytes)", len(rec))
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(rec)) + 0.5 // Pos.X leads the record
	binary.LittleEndian.PutUint64(rec, math.Float64bits(x))
	id := int32(binary.LittleEndian.Uint32(rec[unsafe.Offsetof(nbody.Body{}.ID):]))
	var regions []arena.NamedRegion
	for _, r := range c.Header.Regions {
		data, _ := c.Region(r.Name)
		regions = append(regions, arena.NamedRegion{Name: r.Name, Data: data})
	}
	var buf bytes.Buffer
	if err := arena.WriteCheckpoint(&buf, c.Header.Key, c.Header.Step, c.Header.Env, regions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), id, x
}

// TestRestoreIsTheUpload: POST /sims/restore restores the uploaded
// container and nothing else, even when the store already holds its
// (key, step). A corrupt payload behind a valid header is 400; an edited
// but validly resealed upload restores its own bodies and becomes the
// stored entry for that pair; an upload at a novel step is persisted too.
func TestRestoreIsTheUpload(t *testing.T) {
	st := openTestStore(t, t.TempDir(), nil)
	s := newTestServer(t, Config{Shards: 2, Store: st, CkptEvery: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	opts := testOpts(8)
	key := opts.Key()
	sess, _ := admitOK(t, s, s.buildCreate(opts))
	stepOne(t, s, sess)
	stepOne(t, s, sess) // auto-checkpoint at step 2
	waitFor(t, "step-2 checkpoint", func() bool { return stored(st, key, 2) != nil })
	ckptURL := ts.URL + "/sims/" + sess.id + "/checkpoint"
	ckpt := callOK(t, "POST", ckptURL, nil, http.StatusOK, nil)

	created := s.Stats().Sessions.Created
	corrupt := append([]byte(nil), ckpt...)
	corrupt[len(corrupt)-1] ^= 0x40 // payload CRC mismatch; header intact
	if code, raw := call(t, "POST", ts.URL+"/sims/restore", corrupt); code != http.StatusBadRequest {
		t.Fatalf("corrupt payload at a stored (key, step): %d %s, want 400", code, raw)
	}
	if got := s.Stats().Sessions.Created; got != created {
		t.Fatalf("a corrupt upload created %d sessions", got-created)
	}

	edited, id, x := movedBody(t, ckpt)
	var ri sessionInfo
	callOK(t, "POST", ts.URL+"/sims/restore", edited, http.StatusCreated, &ri)
	if ri.Done != 2 || ri.Key != key {
		t.Fatalf("restored %+v, want key %q at step 2", ri, key)
	}
	var snap core.Snapshot
	callOK(t, "GET", ts.URL+"/sims/"+ri.ID+"/snapshot?bodies=1", nil, http.StatusOK, &snap)
	found := false
	for _, b := range snap.Bodies {
		if b.ID == id {
			found = true
			if b.Pos.X != x {
				t.Fatalf("restored body %d at Pos.X %v, want the upload's %v", id, b.Pos.X, x)
			}
		}
	}
	if !found {
		t.Fatalf("restored snapshot has no body %d", id)
	}
	waitFor(t, "the upload to replace the stored step-2 entry", func() bool {
		return bytes.Equal(stored(st, key, 2), edited)
	})

	stepOne(t, s, sess) // step 3: not an auto-checkpoint boundary
	if stored(st, key, 3) != nil {
		t.Fatal("step 3 unexpectedly already stored")
	}
	novel := callOK(t, "POST", ckptURL, nil, http.StatusOK, nil)
	if callOK(t, "POST", ts.URL+"/sims/restore", novel, http.StatusCreated, &ri); ri.Done != 3 {
		t.Fatalf("restore of a novel step: %+v, want step 3", ri)
	}
	waitFor(t, "the step-3 upload persisted", func() bool { return bytes.Equal(stored(st, key, 3), novel) })
}

// TestRestoredRunNeverFeedsCache: a restored run holds whatever bodies its
// container carried, so when it completes its Result is not memoized under
// the key; a later identical create simulates its own run, and only that
// run serves the creates after it.
func TestRestoredRunNeverFeedsCache(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const optsJSON = `{"options":{"bodies":256,"steps":4,"warmup":1,"level":"merged","machine":{"threads":2}}}`
	create := func() (si sessionInfo) {
		callOK(t, "POST", ts.URL+"/sims", []byte(optsJSON), http.StatusCreated, &si)
		return si
	}
	// runOut steps a session to its last step and answers its Result.
	runOut := func(si sessionInfo) (res core.Result) {
		if k := si.Steps - si.Done; k > 0 {
			callOK(t, "POST", ts.URL+"/sims/"+si.ID+"/step?k="+strconv.Itoa(k), nil, http.StatusOK, nil)
		}
		callOK(t, "GET", ts.URL+"/sims/"+si.ID+"/result", nil, http.StatusOK, &res)
		return res
	}

	o := create()
	callOK(t, "POST", ts.URL+"/sims/"+o.ID+"/step?k=2", nil, http.StatusOK, nil)
	ckpt := callOK(t, "POST", ts.URL+"/sims/"+o.ID+"/checkpoint", nil, http.StatusOK, nil)
	callOK(t, "DELETE", ts.URL+"/sims/"+o.ID, nil, http.StatusNoContent, nil)

	edited, _, _ := movedBody(t, ckpt)
	var ri sessionInfo
	callOK(t, "POST", ts.URL+"/sims/restore", edited, http.StatusCreated, &ri)
	editedRes := runOut(ri)

	later := create()
	if later.CacheHit {
		t.Fatal("a create after a restored run completed was served from the cache")
	}
	own := runOut(later)
	if own.Interactions == editedRes.Interactions {
		t.Fatalf("the edited run matches O's own (%d interactions): the edit moved nothing", own.Interactions)
	}
	again := create()
	if !again.CacheHit {
		t.Fatal("O's own completed run was not memoized")
	}
	if got := runOut(again); got.Interactions != own.Interactions {
		t.Fatalf("cache hit answers %d interactions, O's own run has %d", got.Interactions, own.Interactions)
	}
}

// lastStepContainer checkpoints a run of opts paused after its last step.
func lastStepContainer(t *testing.T, opts core.Options) []byte {
	t.Helper()
	sim, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if err := sim.Step(opts.Steps); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// finishedOnAdmission checks a session admitted at its last step: its
// status says finished, its result answers, and its stream is the one
// terminal frame and then EOF, under a deadline.
func finishedOnAdmission(t *testing.T, url string, si sessionInfo) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url + "/sims/" + si.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stream did not end: %v (read %q)", err, raw)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 1 || lineStep(t, []byte(lines[0])) != si.Steps {
		t.Fatalf("stream sent %d lines %.80q, want the one terminal frame at step %d", len(lines), raw, si.Steps)
	}
	if !si.Finished || si.Done != si.Steps {
		t.Fatalf("admitted at its last step: %+v, want finished at step %d", si, si.Steps)
	}
	callOK(t, "GET", url+"/sims/"+si.ID+"/result", nil, http.StatusOK, nil)
}

// TestAdmittedAtLastStepFinishes: a container captured after its last
// step, uploaded or recovered from the store at boot, is finished on
// admission — nothing is left to step, so its stream ends.
func TestAdmittedAtLastStepFinishes(t *testing.T) {
	opts := testOpts(4)
	ckpt := lastStepContainer(t, opts)

	t.Run("restore", func(t *testing.T) {
		s := newTestServer(t, Config{Shards: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		var si sessionInfo
		callOK(t, "POST", ts.URL+"/sims/restore", ckpt, http.StatusCreated, &si)
		finishedOnAdmission(t, ts.URL, si)
	})

	t.Run("recovery", func(t *testing.T) {
		st := openTestStore(t, t.TempDir(), nil)
		if err := st.Put(opts.Key(), opts.Steps, ckpt); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Shards: 1, Store: st})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		var list struct {
			Sessions []sessionInfo `json:"sessions"`
		}
		callOK(t, "GET", ts.URL+"/sims", nil, http.StatusOK, &list)
		if len(list.Sessions) != 1 || !list.Sessions[0].Recovered {
			t.Fatalf("listed %+v, want one recovered session", list.Sessions)
		}
		finishedOnAdmission(t, ts.URL, list.Sessions[0])
	})
}
