package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"upcbh/internal/serve"
)

// endpoint is an in-process bhserve: a serve.Server behind a loopback
// net/http listener, exactly what cmd/bhserve wires up.
type endpoint struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	served  chan struct{} // closed when Serve has returned
}

func startEndpoint(cfg serve.Config) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{
		srv:    serve.New(cfg),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	e.httpSrv = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		_ = e.httpSrv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return e, nil
}

// stop drains the service first (closing hubs ends open streams), then
// the listener, and waits for the accept loop to exit.
func (e *endpoint) stop() {
	e.srv.Shutdown()
	_ = e.httpSrv.Close()
	<-e.served
}

// client is one closed-loop caller: its own connection pool, so T
// clients hold T keep-alive connections, and a reused response buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}},
	}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// do makes one round trip under a span named after the route and
// returns the status, the body (valid until the next call) and the
// round-trip latency in ms, response fully read.
func (cl *client) do(tr *tracer, parent spanID, op int, route, method, path string, body []byte) (int, []byte, float64, error) {
	sp := tr.begin("http."+route, parent, op)
	defer tr.end(sp)
	t0 := time.Now()
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, msSince(t0), err
	}
	cl.buf.Reset()
	_, err = io.Copy(&cl.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, cl.buf.Bytes(), msSince(t0), err
}

// expect turns a wrong status or transport error into one error.
func expect(want, got int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("status %d, want %d: %.200s", got, want, body)
	}
	return nil
}
