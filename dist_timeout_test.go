package addict

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"addict/internal/wire"
)

// TestCoordinatorStalledHeaderDisconnected: a client that sends part of a
// request header to the endpoint SweepDistributed serves, and then stalls,
// is disconnected once wire.ReadHeaderTimeout expires.
func TestCoordinatorStalledHeaderDisconnected(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	spec := SweepSpec{
		Seed: 7, Scale: 0.05, ProfileTraces: 40, EvalTraces: 40,
		Workloads: []string{"TPC-B"}, Mechanisms: []string{"Baseline"}, Threads: []int{2},
	}
	go func() {
		// No workers join, so the run waits until the cancel below.
		_, err := NewEngine().SweepDistributed(ctx, io.Discard, spec, "csv", DistConfig{
			OnListen: func(addr string) { addrCh <- addr },
		})
		done <- err
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("SweepDistributed returned before listening: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /dist/v2/lease HTTP/1.1\r\nHost: stall\r\nContent-Ty"); err != nil {
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

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled SweepDistributed: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SweepDistributed did not return after cancel")
	}
}

// TestSweepDistributedCancelReturnsPromptly: a cancel while local workers
// compute ends SweepDistributed without waiting out distLinger. A local
// worker that returned on the cancel was never told the run is over, but
// it cannot be stranded by the endpoint closing either, so only remote
// workers may hold the endpoint open.
func TestSweepDistributedCancelReturnsPromptly(t *testing.T) {
	e := NewEngine(WithScale(0.1), WithTraceWindows(200, 200, 0))
	spec := SweepSpec{
		Workloads:  []string{"TPC-B", "TPC-C"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		Threads:    []int{2, 4, 8},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.SweepDistributed(ctx, io.Discard, spec, "csv", DistConfig{LocalWorkers: 2})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("SweepDistributed returned %v after the cancel, want under 1s (distLinger is %v)", elapsed, distLinger)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled (the grid must still be computing at the cancel)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SweepDistributed did not return after cancel")
	}
}
