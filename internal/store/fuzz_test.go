package store

import (
	"bytes"
	"os"
	"testing"
)

// fuzzEntries are the (spec, payload) pairs FuzzStoreVerify writes through
// Put; the fuzzed bytes are checked against one of them.
var fuzzEntries = []struct {
	spec    string
	payload []byte
}{
	{"traces|wl=TPC-B|seed=1|scale=0.05|shards=0-1", []byte("the artifact payload")},
	{"profile|wl=synth:zipf-hot-rw", []byte{}},
	{"", []byte{0, 1, 2, 0xff}},
}

// FuzzStoreVerify is the fuzz target for the on-disk entry format, which
// store reads accept from a directory other processes (or a crash) may have
// written. For every input verify either returns an error or returns
// exactly the payload Put wrote for the spec it was asked about, and it
// never panics. The payload digest is a corruption check, not an
// authenticator: an entry deliberately rebuilt with a fresh digest would
// verify, but no mutation of a written entry does.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/store -fuzz=FuzzStoreVerify.
func FuzzStoreVerify(f *testing.F) {
	s, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range fuzzEntries {
		s.Put(e.spec, e.payload)
		_, file := s.path(Key(e.spec))
		valid, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid, uint8(i))
		for j := range valid {
			flipped := bytes.Clone(valid)
			flipped[j] ^= 0x01
			f.Add(flipped, uint8(i))
		}
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte(fileMagic+"\xff\xff\xff\xff"), uint8(0)) // absurd spec length

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		e := fuzzEntries[int(which)%len(fuzzEntries)]
		payload, err := verify(data, e.spec)
		if err != nil {
			return
		}
		if !bytes.Equal(payload, e.payload) {
			t.Fatalf("verify(%q) accepted a payload Put never wrote: %x", e.spec, payload)
		}
	})
}
