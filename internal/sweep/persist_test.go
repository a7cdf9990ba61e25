package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"addict/internal/pool"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/trace"
)

// newStoredArtifacts builds an Artifacts over a fresh store in dir.
func newStoredArtifacts(t *testing.T, dir string) *Artifacts {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewArtifacts(5, 0.02, 20, 20, 2, 0, st)
}

// TestPersistTraceSetWarmStart persists a trace window through one
// Artifacts and reloads it through a second (fresh memory, same store
// directory): the reloaded window must be identical and must come from
// disk, not regeneration.
func TestPersistTraceSetWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:uniform-ro"

	cold := newStoredArtifacts(t, dir)
	want, err := cold.EvalSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.disk.Stats()
	if cs.Writes == 0 {
		t.Fatalf("cold run persisted nothing: %+v", cs)
	}

	warm := newStoredArtifacts(t, dir)
	got, err := warm.EvalSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.disk.Stats()
	if ws.Hits == 0 {
		t.Fatalf("warm run hit nothing: %+v", ws)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("persisted trace window differs from the generated one")
	}

	// The profiling window has a distinct spec: warm Artifacts must not
	// serve the eval window for it.
	profCold, err := cold.ProfileSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	profWarm, err := warm.ProfileSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(profWarm, profCold) {
		t.Error("persisted profiling window differs")
	}
	if reflect.DeepEqual(profWarm, got) {
		t.Error("profiling and evaluation windows collided on disk")
	}
}

// TestPersistProfileWarmStart round-trips an Algorithm 1 profile through
// the store.
func TestPersistProfileWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:hotset-write"
	machine := sim.Shallow()

	cold := newStoredArtifacts(t, dir)
	want, err := cold.Profile(ctx, name, machine)
	if err != nil {
		t.Fatal(err)
	}

	warm := newStoredArtifacts(t, dir)
	got, err := warm.Profile(ctx, name, machine)
	if err != nil {
		t.Fatal(err)
	}
	// Structural equality, not DeepEqual: the codec intentionally drops
	// profiling-only configuration (the NoMigrate filter already did its
	// job), so the contract is that everything replay consumes survives.
	if !got.Equal(want) {
		t.Error("persisted profile differs from the computed one")
	}
	if ws := warm.disk.Stats(); ws.Hits == 0 {
		t.Fatalf("warm profile did not read from disk: %+v", ws)
	}

	// The restored profile must be interchangeable in a replay.
	set, err := cold.EvalSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnit(name, "ADDICT", machine, 0, 0)
	rCold, err := Replay(u, set, want)
	if err != nil {
		t.Fatal(err)
	}
	rWarm, err := Replay(u, set, got)
	if err != nil {
		t.Fatal(err)
	}
	if Measure(rCold) != Measure(rWarm) {
		t.Error("replay under the restored profile diverged from the computed one")
	}
}

// TestPersistResultWarmStart round-trips a replay result: the result read
// back from disk must equal the replayed one in every field, the per-level
// cache aggregates (persisted beside the counters) included.
func TestPersistResultWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:uniform-ro"

	cold := newStoredArtifacts(t, dir)
	want, err := cold.Result(ctx, name, sched.ADDICT, sim.Shallow())
	if err != nil {
		t.Fatal(err)
	}

	warm := newStoredArtifacts(t, dir)
	hitsBefore := warm.disk.Stats().Hits
	got, err := warm.Result(ctx, name, sched.ADDICT, sim.Shallow())
	if err != nil {
		t.Fatal(err)
	}
	if hits := warm.disk.Stats().Hits; hits <= hitsBefore {
		t.Fatal("warm result did not read from disk")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored result differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestPersistResultPinnedEntries decodes result entries encoded by an
// earlier build of the result codec (testdata/result_*.json): each must
// equal a fresh replay of the same unit, and encoding it again must give
// back the stored bytes, so the on-disk format has not moved.
func TestPersistResultPinnedEntries(t *testing.T) {
	ctx := context.Background()
	arts := NewArtifacts(5, 0.02, 20, 20, 1, 0, nil)
	for _, c := range []struct {
		file, workload string
		mech           sched.Mechanism
		machine        sim.Config
	}{
		{"result_addict_uniform-ro_shallow.json", "synth:uniform-ro", sched.ADDICT, sim.Shallow()},
		{"result_htmspec_zipf-hot-rw_deep.json", "synth:zipf-hot-rw", sched.HTMSPEC, sim.Deep()},
	} {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			v, err := decodeResult(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			want, err := arts.Result(ctx, c.workload, c.mech, c.machine)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v, want) {
				t.Errorf("decoded entry differs from a fresh replay:\n got %+v\nwant %+v", v, want)
			}
			var buf bytes.Buffer
			if err := encodeResult(&buf, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("re-encoded entry differs from the stored bytes:\n got %s\nwant %s", buf.Bytes(), data)
			}
		})
	}
}

// TestPersistResultDistinctMachines verifies the machine signature keeps
// results for different machines apart on disk.
func TestPersistResultDistinctMachines(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:uniform-ro"

	arts := newStoredArtifacts(t, dir)
	rs, err := arts.Result(ctx, name, sched.Baseline, sim.Shallow())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := arts.Result(ctx, name, sched.Baseline, sim.Deep())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan == rd.Makespan {
		t.Skip("machines produced identical makespans; signature test is vacuous")
	}

	// A warm cache asked for the deep machine must get the deep result.
	warm := newStoredArtifacts(t, dir)
	got, err := warm.Result(ctx, name, sched.Baseline, sim.Deep())
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != rd.Makespan {
		t.Errorf("warm deep-machine result has makespan %d, want %d (shallow was %d)",
			got.Makespan, rd.Makespan, rs.Makespan)
	}
}

// TestArtifactWeightCountsPackedEvents: a trace set weighs what its packed
// events occupy, 8 bytes each, so the weight follows the event layout.
func TestArtifactWeightCountsPackedEvents(t *testing.T) {
	if eventBytes != 8 {
		t.Fatalf("a trace event occupies %d bytes, want 8", eventBytes)
	}
	events := make([]trace.Event, 1000)
	set := &trace.Set{Traces: []*trace.Trace{{Events: events}, {Events: events[:10]}}}
	if got, want := artifactWeight("", set), int64(256+2*96+8*1010); got != want {
		t.Errorf("artifactWeight = %d, want %d", got, want)
	}
}

// TestArtifactWeightChargesResultEntry: a cached replay result is charged
// at least what the entry keeps live — its spec key (mostly the machine
// signature), the boxed sim.Result, and the per-core activity slice.
func TestArtifactWeightChargesResultEntry(t *testing.T) {
	ctx := context.Background()
	a := NewArtifacts(5, 0.05, 20, 20, 1, 0, nil)
	machine := sim.Shallow()
	if _, err := a.EvalSet(ctx, "TPC-C"); err != nil {
		t.Fatal(err)
	}
	before := a.CacheStats().Bytes
	r, err := a.Result(ctx, "TPC-C", sched.Baseline, machine)
	if err != nil {
		t.Fatal(err)
	}
	charged := a.CacheStats().Bytes - before
	key := a.resultEntry("TPC-C", sched.Baseline, machine).spec
	floor := int64(len(key)) + int64(unsafe.Sizeof(sim.Result{})) + 8*int64(len(r.CoreActive))
	if charged < floor {
		t.Errorf("a cached TPC-C result is charged %d B, below the %d B it keeps live (key %d B)",
			charged, floor, len(key))
	}
}

// TestArtifactWeightBudget locks the weight-accounting fix: with mixed
// artifact kinds — including kinds artifactWeight has no case for — the
// resident bytes never exceed the budget, because the fallback weighs the
// encoded value instead of guessing a flat constant.
func TestArtifactWeightBudget(t *testing.T) {
	// The fallback must scale with the value, not flat-guess.
	big := make([]int, 4096)
	if w := artifactWeight("", big); w < 4096 {
		t.Fatalf("fallback weight %d for a 4096-int slice is below its encoded size", w)
	}
	if w := artifactWeight("", func() {}); w < 1<<20 {
		t.Fatalf("unencodable value weighed %d, want the large-value assumption", w)
	}

	const budget = 32 << 10
	lru := pool.NewLRU[any](budget, artifactWeight)
	ctx := context.Background()
	values := []func() (any, error){
		func() (any, error) { return sim.Result{}, nil },
		func() (any, error) { return make([]int, 2048), nil }, // unknown kind, ~16KiB encoded
		func() (any, error) { return make([]int, 4096), nil }, // unknown kind, ~32KiB encoded
		func() (any, error) { return "small string", nil },
		func() (any, error) { return map[string]int{"a": 1}, nil },
	}
	for round := 0; round < 3; round++ {
		for i, fn := range values {
			key := string(rune('a'+i)) + string(rune('0'+round))
			if _, err := lru.Do(ctx, key, fn); err != nil {
				t.Fatal(err)
			}
			if st := lru.Stats(); st.Bytes > budget {
				t.Fatalf("resident bytes %d exceed the %d budget after inserting %q", st.Bytes, budget, key)
			}
		}
	}
}
