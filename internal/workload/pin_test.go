package workload_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// The generated bytes are the reproduction's contract: profiles, goldens and
// persisted trace windows all derive from them, and a store serves windows
// an older build wrote, so no speed-up of the generation path (storage
// manager, code map, trace recorder) may change a single event.
// These constants were computed before the generation path was optimized
// and must never be regenerated to make a change pass; a mismatch means the
// change altered the traces or the storage manager's behaviour.

const (
	pinSeed      = 42
	pinScale     = 0.05
	pinShardSize = workload.DefaultShardSize
	pinShards    = 2
)

// managerState is the end state of one shard's storage manager after its
// warm-up and traced window.
type managerState struct {
	pages, logBytes               uint64
	acquires, releases, conflicts uint64
}

func (s managerState) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d}", s.pages, s.logBytes, s.acquires, s.releases, s.conflicts)
}

var pinned = []struct {
	name   string
	digest uint64
	shards [pinShards]managerState
}{
	{"TPC-B", 0xc4ab4503f450c249, [pinShards]managerState{{236, 2008244, 11593, 11593, 0}, {236, 2008244, 11593, 11593, 0}}},
	{"TPC-C", 0x64e787d4881e60eb, [pinShards]managerState{{493, 4912068, 19569, 19569, 0}, {491, 4843133, 18898, 18898, 0}}},
	{"TPC-E", 0xd2076b3d30ada6fb, [pinShards]managerState{{186, 1404356, 8993, 8993, 0}, {186, 1409012, 8980, 8980, 0}}},
	{"synth:zipf-hot-rw", 0x4435984c0aeacc4e, [pinShards]managerState{{428, 3494928, 18758, 18758, 0}, {428, 3483216, 18719, 18719, 0}}},
	{"synth:uniform-ro", 0xc31131610abbccf4, [pinShards]managerState{{212, 1605312, 8120, 8120, 0}, {212, 1605312, 8085, 8085, 0}}},
}

// generatePinned generates the named workload's pinned window through the
// one name resolver and the shard recipe.
func generatePinned(t *testing.T, name string) *trace.Set {
	t.Helper()
	_, build, err := synth.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.GenerateSetShardedWith(context.Background(), build, pinSeed, pinScale, 0, pinShards*pinShardSize, pinShardSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPinnedGenerationDigests freezes the trace-set digest and every
// shard's storage-manager end state for the three TPC benchmarks and two
// synthetic presets, two shards each, generated through the resolver every
// consumer uses. A serial second run keeps each shard's benchmark to
// inspect its manager.
func TestPinnedGenerationDigests(t *testing.T) {
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			if got := generatePinned(t, p.name).Digest(); got != p.digest {
				t.Errorf("digest = %#x, want %#x", got, p.digest)
			}

			_, build, err := synth.Workload(p.name)
			if err != nil {
				t.Fatal(err)
			}
			var benches [pinShards]*workload.Benchmark
			keep := func(seed int64, scale float64, first int64) *workload.Benchmark {
				b := build(seed, scale, first)
				benches[(first+workload.ShardWarmup)/pinShardSize] = b
				return b
			}
			serial, err := workload.GenerateSetShardedWith(context.Background(), keep, pinSeed, pinScale, 0, pinShards*pinShardSize, pinShardSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := serial.Digest(); got != p.digest {
				t.Errorf("serial digest = %#x, want %#x", got, p.digest)
			}
			var got [pinShards]managerState
			for s, b := range benches {
				m := b.Manager()
				got[s] = managerState{pages: m.PagesAllocated(), logBytes: m.LogBytes()}
				got[s].acquires, got[s].releases, got[s].conflicts = m.LockStats()
			}
			if got != p.shards {
				t.Errorf("manager end states = {%v, %v}, want {%v, %v}", got[0], got[1], p.shards[0], p.shards[1])
			}
		})
	}
}

// pinnedWire holds the SHA-256 of trace.WriteSet's bytes for each family's
// pinned window. The artifact store serves windows an older build wrote
// under the same codec token, so the bytes a window encodes to are a
// contract of their own: the in-memory event layout may change, the wire
// format may not without a new token. Recorded before the event type was
// packed into one word; never regenerate them to make a change pass.
var pinnedWire = map[string]string{
	"TPC-B":             "d2ab2be01542c9bfb98490d6898da4e0e458ba3f7319096b327bc914c4ab4656",
	"TPC-C":             "2eb1c97fc56bb9d0bb06fd5ec1bd2a5245812315272f06dcf042a6350627eb7c",
	"TPC-E":             "ff20a1fd537e0aa0263bea365c5b683e8826a7346412f42abdf5f1831b90d808",
	"synth:zipf-hot-rw": "df8c2bdb81e253c4d2202bf52d465cf301dbd6b2392ad10c21bc480988f990a2",
	"synth:uniform-ro":  "8d0a9b78bbe729bc41aecb271787f9e0e3988929c9a337caf74e4642d772bde4",
}

// TestPinnedWireDigests freezes the encoded bytes of each pinned window.
func TestPinnedWireDigests(t *testing.T) {
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := trace.WriteSet(&buf, generatePinned(t, p.name)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pinnedWire[p.name] {
				t.Errorf("WriteSet SHA-256 = %s, want %s", got, pinnedWire[p.name])
			}
		})
	}
}
