package main

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"addict"
)

// TestGridSizeOverflow checks that a size whose scaled value does not fit
// an int is rejected instead of wrapping (17592186044417M × 2^20 wraps to
// exactly 1M), while in-range extremes parse exactly. Zero and negative
// sizes parse here; the sweep spec's validation rejects them.
func TestGridSizeOverflow(t *testing.T) {
	for _, tc := range []struct {
		grid    string
		want    []int
		wantErr bool
	}{
		{grid: "l1i=17592186044417M", wantErr: true},
		{grid: "l1i=9223372036854775807K", wantErr: true},
		{grid: "l1i=-9223372036854775807M", wantErr: true},
		{grid: "l1i=0K", want: []int{0}},
		{grid: "l1i=-1M", want: []int{-1 << 20}},
		{grid: "l1i=9223372036854775807", want: []int{9223372036854775807}},
		{grid: "l1i=8796093022207M", want: []int{8796093022207 << 20}},
	} {
		var spec addict.SweepSpec
		err := applyGrid(&spec, tc.grid)
		got := spec.L1ISizes
		switch {
		case tc.wantErr && err == nil:
			t.Errorf("applyGrid(%q) = %v, want an overflow error", tc.grid, got)
		case !tc.wantErr && err != nil:
			t.Errorf("applyGrid(%q): %v", tc.grid, err)
		case !tc.wantErr && !slices.Equal(got, tc.want):
			t.Errorf("applyGrid(%q) = %v, want %v", tc.grid, got, tc.want)
		}
	}
}

// FuzzApplyGrid checks the -grid parser never panics and, on success,
// stores every size axis value as the exact decimal count times its
// suffix's power of 1024 — computed here in arbitrary precision, so a
// wrapped product cannot pass.
func FuzzApplyGrid(f *testing.F) {
	for _, seed := range []string{
		"l1i=16K,32K,64K; mech=Baseline,ADDICT; workload=TPC-C",
		"cores=4,8,16,32; mech=ADDICT",
		"l1i=16K,32K; mech=Baseline,ADDICT; threads=4,16; workload=TPC-B",
		"l1i=16K,32K,64K; mech=Baseline,ADDICT",
		"synth=zipf-hot-rw; theta=0.6,0.99; write=0.1,0.9",
		"workload=TPC-C; mech=Baseline,ADDICT; l1i=16K,32K",
		"llc=8M,16M; llcways=8,16; hit=16; mem=105; admit=0,8; hot=64",
		"l1i=17592186044417M",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, grid string) {
		var spec addict.SweepSpec
		if err := applyGrid(&spec, grid); err != nil {
			return
		}
		want := map[string][]*big.Int{}
		for _, clause := range strings.Split(grid, ";") {
			name, vals, ok := strings.Cut(strings.TrimSpace(clause), "=")
			if !ok {
				continue
			}
			switch name = strings.TrimSpace(strings.ToLower(name)); name {
			case "shared":
				name = "llc"
			case "l1i", "llc":
			default:
				continue
			}
			var exact []*big.Int
			for _, v := range strings.Split(vals, ",") {
				if v = strings.TrimSpace(v); v != "" {
					exact = append(exact, exactSize(t, v))
				}
			}
			want[name] = exact
		}
		for name, got := range map[string][]int{"l1i": spec.L1ISizes, "llc": spec.SharedSizes} {
			w, set := want[name]
			if !set {
				if got != nil {
					t.Fatalf("%s axis = %v, but the grid never set it", name, got)
				}
				continue
			}
			if len(got) != len(w) {
				t.Fatalf("%s axis = %v, want %v", name, got, w)
			}
			for i := range got {
				if big.NewInt(int64(got[i])).Cmp(w[i]) != 0 {
					t.Fatalf("%s axis value %d = %d, want %v", name, i, got[i], w[i])
				}
			}
		}
	})
}

// exactSize is the arbitrary-precision value of a parsed size token.
func exactSize(t *testing.T, v string) *big.Int {
	shift := uint(0)
	switch v[len(v)-1] {
	case 'K', 'k':
		shift, v = 10, v[:len(v)-1]
	case 'M', 'm':
		shift, v = 20, v[:len(v)-1]
	}
	n, ok := new(big.Int).SetString(v, 10)
	if !ok {
		t.Fatalf("applyGrid accepted size %q, which is not a decimal integer", v)
	}
	return n.Lsh(n, shift)
}
