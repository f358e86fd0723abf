package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain runs bhserve's main() instead of the tests in a daemon child
// (startDaemon), so the end-to-end tests drive the real binary.
func TestMain(m *testing.M) {
	if os.Getenv("UPCBH_BHSERVE_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startDaemon re-executes this test binary as `bhserve -addr 127.0.0.1:0
// args...` and returns it with its base URL once it has logged the
// address it bound; its log goes on to stderr. The process is killed, if
// still running, when the test ends.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "UPCBH_BHSERVE_CHILD=1")
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close() // the child has its own copy: r reads EOF once the child is gone
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	for sc := bufio.NewScanner(r); sc.Scan(); {
		os.Stderr.WriteString(sc.Text() + "\n")
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			go io.Copy(os.Stderr, r)
			return cmd, "http://" + addr
		}
	}
	t.Fatalf("bhserve %v exited before listening: %v", args, cmd.Wait())
	return nil, ""
}

// call sends one request and returns the answer's body, failing the test
// unless its status is want.
func call(t *testing.T, want int, method, url, body string) []byte {
	t.Helper()
	req, _ := http.NewRequest(method, url, strings.NewReader(body)) // both are literals of these tests
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s %s: %d %s (%v), want %d", method, url, resp.StatusCode, b, err, want)
	}
	return b
}

// TestSIGTERMDrains: with one shard and a one-slot queue the daemon sheds
// part of a burst of concurrent steps with 429, and a real SIGTERM drains
// it: the open stream ends cleanly and the process exits 0.
func TestSIGTERMDrains(t *testing.T) {
	cmd, url := startDaemon(t, "-shards", "1", "-queue", "1")
	call(t, http.StatusCreated, "POST", url+"/sims", `{"options":{"bodies":8192,"steps":1000,"warmup":1,"machine":{"threads":8}}}`)
	stream, err := http.Get(url + "/sims/s-1/stream") // answered once subscribed
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, stream.Body)
		ended <- err
	}()
	var burst sync.WaitGroup
	shed := make(chan int, 20)
	for range cap(shed) {
		burst.Add(1)
		go func() {
			defer burst.Done()
			if resp, err := http.Post(url+"/sims/s-1/step?k=5", "", nil); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					shed <- resp.StatusCode
				}
			}
		}()
	}
	if burst.Wait(); len(shed) == 0 {
		t.Error("no 429 from a burst at a one-slot queue")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("exit after SIGTERM: %v, want status 0", err)
	}
	if err := <-ended; err != nil {
		t.Errorf("the stream ended with %v, want a clean end at the drain", err)
	}
}

// TestKill9Recovery: a daemon SIGKILLed with a step in flight, after its
// step-4 auto-checkpoint persisted, restarts on the same store with the
// session listed as recovered at step 4, and its remaining steps and
// result are byte-identical to an uninterrupted daemon's.
func TestKill9Recovery(t *testing.T) {
	const create = `{"options":{"bodies":512,"steps":8,"warmup":1,"level":"merged","machine":{"threads":2}}}`
	_, ref := startDaemon(t)
	call(t, http.StatusCreated, "POST", ref+"/sims", create)
	want := make([][]byte, 9)
	for s := 1; s <= 8; s++ {
		want[s] = call(t, http.StatusOK, "POST", ref+"/sims/s-1/step?k=1", "")
	}
	wantResult := call(t, http.StatusOK, "GET", ref+"/sims/s-1/result", "")

	dir := t.TempDir()
	cmd, url := startDaemon(t, "-store", dir, "-ckpt-every", "2")
	call(t, http.StatusCreated, "POST", url+"/sims", create)
	for range 4 {
		call(t, http.StatusOK, "POST", url+"/sims/s-1/step?k=1", "")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var st struct{ Checkpoints struct{ Persisted int } }
		if json.Unmarshal(call(t, http.StatusOK, "GET", url+"/stats", ""), &st); st.Checkpoints.Persisted >= 2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints persisted after 10 s, want 2", st.Checkpoints.Persisted)
		}
	}
	go func() { // in flight at the kill
		if resp, err := http.Post(url+"/sims/s-1/step?k=1", "", nil); err == nil {
			resp.Body.Close()
		}
	}()
	_ = cmd.Process.Kill() // fails only if the daemon died already, which the restart shows
	_ = cmd.Wait()         // killed: the status is not a result
	_, url = startDaemon(t, "-store", dir, "-ckpt-every", "2")
	var list struct {
		Sessions []struct {
			ID                  string
			Done                int `json:"steps_done"`
			Finished, Recovered bool
		}
	}
	if err := json.Unmarshal(call(t, http.StatusOK, "GET", url+"/sims", ""), &list); err != nil {
		t.Fatal(err)
	}
	if s := list.Sessions; len(s) != 1 || !s[0].Recovered || s[0].Done != 4 || s[0].Finished {
		t.Fatalf("GET /sims after the restart lists %+v, want one recovered session at step 4", s)
	}
	sess := url + "/sims/" + list.Sessions[0].ID
	for s := 5; s <= 8; s++ {
		if got := call(t, http.StatusOK, "POST", sess+"/step?k=1", ""); string(got) != string(want[s]) {
			t.Errorf("step %d after the crash:\n%s\nuninterrupted:\n%s", s, got, want[s])
		}
	}
	if got := call(t, http.StatusOK, "GET", sess+"/result", ""); string(got) != string(wantResult) {
		t.Error("the result after the crash differs from the uninterrupted run's")
	}
}

// TestHTTPServerTimeouts: the server bhserve listens with bounds how
// long a client may take over its request headers and how long an idle
// keep-alive connection is kept, and does not bound writes (streams are
// long-lived).
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: /stream responses outlive any fixed deadline", srv.WriteTimeout)
	}
}

// TestHalfRequestLineIsDropped: a client that sends half a request line
// and then nothing is disconnected by the server once the header timeout
// passes (shortened here; the field is what newHTTPServer sets).
func TestHalfRequestLineIsDropped(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /sims HT"); err != nil {
		t.Fatal(err)
	}
	// The server owns the next move: it must end the connection (with or
	// without a 408 first) well before this generous client-side deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept a half-sent request line open for %v", time.Since(start))
	}
}
