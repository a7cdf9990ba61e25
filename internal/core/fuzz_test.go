package core

import (
	"bytes"
	"testing"
)

// FuzzReadProfile is the fuzz target for the binary profile format, which
// profiles read back from an artifact store or a user's file go through.
// For every input the decoder either returns an error or returns a profile
// that WriteProfile re-encodes to exactly the input bytes (the format has
// one canonical serialization), and it never panics.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/core -fuzz=FuzzReadProfile.
func FuzzReadProfile(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteProfile(&seed, sampleProfile()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte(profileMagic))
	f.Add(append(bytes.Clone(seed.Bytes()), 0)) // trailing byte
	// Header claiming 65535 transaction types: must fail cleanly.
	f.Add([]byte("ADPF\x01\x00\x00\x00\x00\x80\x00\x00\x08\x00\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteProfile(&enc, p); err != nil {
			t.Fatalf("re-encoding a decoded profile failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("decoded profile re-encodes to different bytes:\n in  %x\n out %x", data, enc.Bytes())
		}
	})
}
