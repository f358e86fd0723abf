package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts: the server bhserve listens with bounds how
// long a client may take over its request headers and how long an idle
// keep-alive connection is kept, and does not bound writes (streams are
// long-lived).
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
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
	srv := newHTTPServer("", http.NotFoundHandler())
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
