package workload_test

import (
	"bytes"
	"context"
	"testing"

	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// TestCodecRoundTripsRealWindows: every workload family's windows survive
// the trace codec digest-for-digest, and encode to under one byte per event.
// The size bound catches an encoder that silently falls back to literal
// records, which would still round-trip.
func TestCodecRoundTripsRealWindows(t *testing.T) {
	for _, name := range []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw", "synth:uniform-ro"} {
		_, build, err := synth.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := workload.GenerateSetShardedWith(context.Background(), build, 3, 0.05, 0, 40, workload.DefaultShardSize, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteSet(&buf, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := buf.Len()
		got, err := trace.ReadSet(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Digest() != s.Digest() {
			t.Errorf("%s: decoded window differs from the generated one", name)
		}
		events := 0
		for _, tr := range s.Traces {
			events += len(tr.Events)
		}
		perEvent := float64(size) / float64(events)
		t.Logf("%s: %d events, %d bytes, %.3f bytes/event", name, events, size, perEvent)
		if perEvent >= 1 {
			t.Errorf("%s: %.3f encoded bytes per event, want under 1", name, perEvent)
		}
	}
}
