package addict

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestCoordinatorStalledHeaderDisconnected: a client that sends part of a
// request header to the dist coordinator and then stalls is disconnected
// once coordinatorReadHeaderTimeout expires.
func TestCoordinatorStalledHeaderDisconnected(t *testing.T) {
	t.Parallel()
	srv := newCoordinatorServer(http.NotFoundHandler())
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
	if _, err := io.WriteString(conn, "POST /lease HTTP/1.1\r\nHost: stall\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(coordinatorReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns at EOF: the server closed
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", elapsed)
	}
	if elapsed < coordinatorReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout could fire", elapsed, coordinatorReadHeaderTimeout)
	}
}
