package main

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"addict"
	"addict/internal/wire"
)

// TestStalledHeaderDisconnected: a client that sends part of a request
// header to the daemon and then stalls is disconnected once
// wire.ReadHeaderTimeout expires, so it cannot hold a connection (or ever
// reach a handler and an admission slot) indefinitely. The server is built
// the way main builds it.
func TestStalledHeaderDisconnected(t *testing.T) {
	t.Parallel()
	s := newServer(addict.NewEngine(addict.WithScale(0.05)), 1, time.Second, 0)
	srv := wire.NewServer(context.Background(), s.handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/schedule HTTP/1.1\r\nHost: stall\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(wire.ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns at EOF: the server closed
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", elapsed)
	}
	if elapsed < wire.ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout could fire", elapsed, wire.ReadHeaderTimeout)
	}
}
