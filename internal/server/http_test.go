package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHTTPServerClosesStalledHeader pins the daemons' slow-client
// defence: a connection that sends only part of a request header is
// closed once ReadHeaderTimeout passes, instead of being held forever.
func TestHTTPServerClosesStalledHeader(t *testing.T) {
	hs := HTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || hs.IdleTimeout != IdleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("HTTPServer timeouts: header %v idle %v write %v", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	// Shorten the header deadline so the test runs in milliseconds; the
	// mechanism is the one the daemons serve with.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: chimera\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The header is never finished, so the only way the read ends before
	// its own deadline is the server closing the connection.
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a stalled-header connection open")
	}
	if elapsed := time.Since(start); elapsed < hs.ReadHeaderTimeout {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, hs.ReadHeaderTimeout)
	}
}
