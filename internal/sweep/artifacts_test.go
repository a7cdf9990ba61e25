package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
)

// TestWorkbenchBoundedStress hammers a weight-bounded session cache from
// many goroutines (run it under -race): a tiny budget forces artifact
// eviction and regeneration mid-traffic, yet every Result must equal the
// unbounded reference — eviction changes residency, never content — and
// the eviction counter must only grow.
func TestWorkbenchBoundedStress(t *testing.T) {
	ctx := context.Background()
	names := []string{"synth:uniform-ro", "synth:hotset-write"}

	// Reference values from an unbounded session.
	refWB := NewArtifacts(5, 0.02, 20, 20, 2, 0, nil)
	type pair struct {
		name string
		mech sched.Mechanism
	}
	var pairs []pair
	ref := map[pair]sim.Result{}
	for _, name := range names {
		for _, mech := range sched.Mechanisms {
			p := pair{name, mech}
			r, err := refWB.Result(ctx, p.name, p.mech, sim.Shallow())
			if err != nil {
				t.Fatalf("reference %v: %v", p, err)
			}
			pairs = append(pairs, p)
			ref[p] = r
		}
	}

	// Fresh session with a budget far below the working set (the trace
	// windows alone exceed 64KiB), so the stress loop keeps evicting and
	// regenerating artifacts while other goroutines read them.
	wb := NewArtifacts(5, 0.02, 20, 20, 2, 64<<10, nil)

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ev := wb.CacheStats().Evictions; ev < last {
				t.Errorf("eviction counter went backwards: %d then %d", last, ev)
				return
			} else {
				last = ev
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range pairs {
					p := pairs[(i+w*3)%len(pairs)] // offset per worker: maximal interleaving
					got, err := wb.Result(ctx, p.name, p.mech, sim.Shallow())
					if err != nil {
						t.Errorf("worker %d %v: %v", w, p, err)
						return
					}
					if got.Makespan != ref[p].Makespan || got.Machine.Instructions != ref[p].Machine.Instructions {
						t.Errorf("worker %d %v: bounded result diverged from unbounded reference", w, p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	monitor.Wait()

	st := wb.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("a 64KiB budget never evicted under stress: %+v", st)
	}
	if st.Bytes > 64<<10 {
		t.Errorf("resident weight %d exceeds the 64KiB budget after quiescence", st.Bytes)
	}
	// Every Result call either computed or hit — none were lost.
	if want := uint64(workers*rounds*len(pairs)) + uint64(len(pairs)); st.Hits+st.Misses < want/4 {
		t.Errorf("implausibly few cache interactions: %+v", st)
	}
}

// stringEntry is a test artifact identity: JSON of a string.
func stringEntry(spec string) entry {
	return entry{
		spec:   spec,
		encode: func(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v.(string)) },
		decode: func(r io.Reader) (any, error) {
			var s string
			err := json.NewDecoder(r).Decode(&s)
			return s, err
		},
	}
}

// newTestStore opens a fresh store in a temporary directory.
func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCachedReadThrough: memory first, then disk, then compute — a second
// call is a memory hit, and a fresh cache over the same store is a disk
// hit; neither recomputes.
func TestCachedReadThrough(t *testing.T) {
	ctx := context.Background()
	disk := newTestStore(t)
	a := NewArtifacts(5, 0.02, 20, 20, 1, 0, disk)
	e := stringEntry("rt-spec")
	computes := 0
	compute := func() (any, error) { computes++; return "value", nil }

	v, err := a.do(ctx, e, compute)
	if err != nil || v.(string) != "value" {
		t.Fatalf("first do = %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if _, err := a.do(ctx, e, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("memory hit recomputed: computes = %d", computes)
	}
	if st := disk.Stats(); st.Hits != 0 || st.Writes != 1 {
		t.Errorf("cold read-through: want 0 disk hits / 1 write, got %+v", st)
	}

	warm := NewArtifacts(5, 0.02, 20, 20, 1, 0, disk)
	v, err = warm.do(ctx, e, compute)
	if err != nil || v.(string) != "value" {
		t.Fatalf("disk read-through = %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("disk hit recomputed: computes = %d", computes)
	}
	if st := disk.Stats(); st.Hits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Hits)
	}
}

// TestCachedNilDisk: without a store the cache is memory only.
func TestCachedNilDisk(t *testing.T) {
	a := NewArtifacts(5, 0.02, 20, 20, 1, 0, nil)
	v, err := a.do(context.Background(), stringEntry("s"), func() (any, error) { return "plain", nil })
	if err != nil || v.(string) != "plain" {
		t.Fatalf("do = %v, %v", v, err)
	}
	if _, ok := a.StoreStats(); ok {
		t.Error("a memory-only cache reports store counters")
	}
}

// TestCachedComputeErrorNotPersisted: a failed computation reaches neither
// memory nor disk, and the key stays retryable.
func TestCachedComputeErrorNotPersisted(t *testing.T) {
	ctx := context.Background()
	disk := newTestStore(t)
	a := NewArtifacts(5, 0.02, 20, 20, 1, 0, disk)
	e := stringEntry("err-spec")
	boom := errors.New("boom")
	if _, err := a.do(ctx, e, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := disk.Stats(); st.Writes != 0 {
		t.Errorf("a failed compute was persisted: %+v", st)
	}
	v, err := a.do(ctx, e, func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestCachedCodecDriftQuarantinesAndRecomputes: an entry whose digest
// verifies but whose payload no longer decodes is quarantined and
// recomputed, and the fresh encoding replaces it.
func TestCachedCodecDriftQuarantinesAndRecomputes(t *testing.T) {
	ctx := context.Background()
	disk := newTestStore(t)
	old := NewArtifacts(5, 0.02, 20, 20, 1, 0, disk)
	if _, err := old.do(ctx, stringEntry("drift"), func() (any, error) { return "v1-encoding", nil }); err != nil {
		t.Fatal(err)
	}

	drifted := stringEntry("drift")
	drifted.decode = func(io.Reader) (any, error) { return nil, errors.New("stale encoding") }
	a := NewArtifacts(5, 0.02, 20, 20, 1, 0, disk)
	computes := 0
	v, err := a.do(ctx, drifted, func() (any, error) { computes++; return "v2-value", nil })
	if err != nil || v.(string) != "v2-value" {
		t.Fatalf("do = %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (recompute on drift)", computes)
	}
	st := disk.Stats()
	if st.VerifyFailures != 1 {
		t.Errorf("verify_failures = %d, want 1 (drift quarantined)", st.VerifyFailures)
	}
	if st.Writes != 2 {
		t.Errorf("writes = %d, want 2 (the fresh encoding replaced the stale one)", st.Writes)
	}
}

// TestForReusesOnlyMatchingCache: For hands back the cache itself for its
// own base parameters, and otherwise a fresh unbounded cache on the same
// store and worker bound.
func TestForReusesOnlyMatchingCache(t *testing.T) {
	disk := newTestStore(t)
	a := NewArtifacts(5, 0.02, 20, 20, 3, 1<<20, disk)
	if a.For(5, 0.02, 20, 20) != a {
		t.Fatal("For with the cache's own parameters did not return the cache")
	}
	for _, b := range []*Artifacts{
		a.For(6, 0.02, 20, 20), a.For(5, 0.03, 20, 20),
		a.For(5, 0.02, 21, 20), a.For(5, 0.02, 20, 21),
	} {
		if b == a {
			t.Fatal("For reused a cache built over other parameters")
		}
		if b.disk != disk || b.workers != 3 || b.base == a.base {
			t.Errorf("fresh cache: store %p workers %d base %q; want store %p workers 3 and a new base",
				b.disk, b.workers, b.base, disk)
		}
		if _, err := b.do(context.Background(), stringEntry("k"), func() (any, error) { return "v", nil }); err != nil {
			t.Fatal(err)
		}
		if st := b.CacheStats(); st.Entries != 1 {
			t.Errorf("fresh cache should be unbounded and hold its entry: %+v", st)
		}
	}
}

// TestArtifactSpecsPinned pins the on-disk identities: the spec strings
// the store hashes into its addresses. A trace window or profile whose
// spec moves misses every store written before the move.
func TestArtifactSpecsPinned(t *testing.T) {
	quick := NewArtifacts(42, 0.5, 250, 250, 1, 0, nil)
	tiny := NewArtifacts(5, 0.02, 20, 20, 1, 0, nil)
	for _, c := range []struct{ got, want string }{
		{quick.setEntry("profset", "TPC-C").spec,
			"profset|adct-v2|seed=42|scale=0.5|prof=250|eval=250|shard=256|wl=TPC-C"},
		{quick.setEntry("evalset", "synth:zipf-hot-rw").spec,
			"evalset|adct-v2|seed=42|scale=0.5|prof=250|eval=250|shard=256|wl=synth:zipf-hot-rw"},
		{quick.profileEntry("TPC-C", sim.Shallow()).spec,
			"profile|adct-v2|seed=42|scale=0.5|prof=250|eval=250|shard=256|wl=TPC-C|l1i=32768/8|layout=v1"},
		{quick.profileEntry("TPC-B", sim.Deep()).spec,
			"profile|adct-v2|seed=42|scale=0.5|prof=250|eval=250|shard=256|wl=TPC-B|l1i=32768/8|layout=v1"},
		{tiny.setEntry("evalset", "TPC-B").spec,
			"evalset|adct-v2|seed=5|scale=0.02|prof=20|eval=20|shard=256|wl=TPC-B"},
		{tiny.profileEntry("TPC-B", sim.Deep()).spec,
			"profile|adct-v2|seed=5|scale=0.02|prof=20|eval=20|shard=256|wl=TPC-B|l1i=32768/8|layout=v1"},
		{tiny.resultEntry("TPC-B", sched.Baseline, sim.Shallow()).spec,
			"result|adct-v2|seed=5|scale=0.02|prof=20|eval=20|shard=256|wl=TPC-B|mech=Baseline|machine=" +
				"{Cores:16 BaseIPC:2 L1I:{SizeBytes:32768 Ways:8 Name:L1-I} L1D:{SizeBytes:32768 Ways:8 Name:L1-D} " +
				"PrivateL2:<nil> PrivateL2Cycles:0 Shared:{SizeBytes:16777216 Ways:16 Name:L2} SharedBanks:16 " +
				"SharedHitCycles:16 HopCycles:1 MemCycles:105 InstrMissExposure:1 OnChipDataExposure:0.3 " +
				"OffChipDataExposure:0.85 MigrationCycles:90 ContextSwitchCycles:90}|{SizeBytes:0 Ways:0 Name:}"},
	} {
		if c.got != c.want {
			t.Errorf("spec moved:\n got %s\nwant %s", c.got, c.want)
		}
	}
}

// TestMachineSigCoversEveryField changes each field of sim.Config alone —
// nested cache geometries and the private L2 included — and requires a new
// machine signature each time, so two machines that differ anywhere never
// share a replay result in memory or on disk.
func TestMachineSigCoversEveryField(t *testing.T) {
	m := sim.Deep() // PrivateL2 set, so its fields are reached too
	want := machineSig(m)
	fields := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Pointer:
			walk(path, v.Elem())
			return
		}
		if !v.CanSet() {
			t.Fatalf("%s: unexported field; extend this test", path)
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: unhandled kind %s; extend this test", path, v.Kind())
		}
		if machineSig(m) == want {
			t.Errorf("changing %s alone leaves the machine signature unchanged", path)
		}
		v.Set(old)
		fields++
	}
	walk("Config", reflect.ValueOf(&m).Elem())
	if machineSig(m) != want {
		t.Fatal("walk did not restore the machine")
	}
	if fields < 20 {
		t.Errorf("walked only %d fields", fields)
	}
}
