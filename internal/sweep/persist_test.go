package sweep

import (
	"context"
	"reflect"
	"testing"

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
	a := NewArtifacts(5, 0.02, 20, 20, 2)
	a.SetStore(st)
	return a
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
	cs := cold.Store().Stats()
	if cs.Writes == 0 {
		t.Fatalf("cold run persisted nothing: %+v", cs)
	}

	warm := newStoredArtifacts(t, dir)
	got, err := warm.EvalSet(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Store().Stats()
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
	if ws := warm.Store().Stats(); ws.Hits == 0 {
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

// TestPersistResultWarmStart round-trips a replay result — the subtle
// artifact: its machine's cache statistics live in unexported cache
// objects, persisted as aggregates and answered by the restored machine.
func TestPersistResultWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:uniform-ro"

	cold := NewWorkbench(newStoredArtifacts(t, dir), sim.Shallow())
	want, err := cold.Result(ctx, name, sched.ADDICT)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewWorkbench(newStoredArtifacts(t, dir), sim.Shallow())
	hitsBefore := warm.Artifacts().Store().Stats().Hits
	got, err := warm.Result(ctx, name, sched.ADDICT)
	if err != nil {
		t.Fatal(err)
	}
	if hits := warm.Artifacts().Store().Stats().Hits; hits <= hitsBefore {
		t.Fatal("warm result did not read from disk")
	}

	// Every metric downstream reports must match exactly.
	if gm, wm := Measure(got), Measure(want); gm != wm {
		t.Errorf("restored result metrics differ:\n got %+v\nwant %+v", gm, wm)
	}
	// The restored machine must answer CacheStats (power.Analyze consumes
	// it) with the recorded aggregates instead of touching nil caches.
	gi, gd, gs := got.Machine.CacheStats()
	wi, wd, ws := want.Machine.CacheStats()
	if gi != wi || gd != wd || gs != ws {
		t.Errorf("restored machine cache stats differ: %+v/%+v/%+v vs %+v/%+v/%+v",
			gi, gd, gs, wi, wd, ws)
	}
}

// TestPersistResultDistinctMachines verifies the machine signature keeps
// results for different machines apart on disk.
func TestPersistResultDistinctMachines(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const name = "synth:uniform-ro"

	arts := newStoredArtifacts(t, dir)
	shallow := NewWorkbench(arts, sim.Shallow())
	deep := NewWorkbench(arts, sim.Deep())
	rs, err := shallow.Result(ctx, name, sched.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := deep.Result(ctx, name, sched.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan == rd.Makespan {
		t.Skip("machines produced identical makespans; signature test is vacuous")
	}

	// A warm workbench on the deep machine must get the deep result.
	warm := NewWorkbench(newStoredArtifacts(t, dir), sim.Deep())
	got, err := warm.Result(ctx, name, sched.Baseline)
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
	if got, want := artifactWeight(set), int64(256+2*96+8*1010); got != want {
		t.Errorf("artifactWeight = %d, want %d", got, want)
	}
}

// TestArtifactWeightBudget locks the weight-accounting fix: with mixed
// artifact kinds — including kinds artifactWeight has no case for — the
// resident bytes never exceed the budget, because the fallback weighs the
// encoded value instead of guessing a flat constant.
func TestArtifactWeightBudget(t *testing.T) {
	// The fallback must scale with the value, not flat-guess.
	big := make([]int, 4096)
	if w := artifactWeight(big); w < 4096 {
		t.Fatalf("fallback weight %d for a 4096-int slice is below its encoded size", w)
	}
	if w := artifactWeight(func() {}); w < 1<<20 {
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
