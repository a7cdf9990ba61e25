package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func fp(addrs ...uint64) map[uint64]struct{} {
	m := make(map[uint64]struct{}, len(addrs))
	for _, a := range addrs {
		m[a] = struct{}{}
	}
	return m
}

func TestOverlapAllCommon(t *testing.T) {
	res := Overlap([]map[uint64]struct{}{
		fp(1, 2, 3), fp(1, 2, 3), fp(1, 2, 3),
	})
	if res.Shares[Always] != 1.0 {
		t.Errorf("Shares = %v, want all in Always", res.Shares)
	}
	if res.CommonShare() != 1.0 || res.RareShare() != 0 {
		t.Errorf("CommonShare=%v RareShare=%v", res.CommonShare(), res.RareShare())
	}
	if res.FootprintBlocks != 3 || res.Instances != 3 {
		t.Errorf("footprint=%d instances=%d", res.FootprintBlocks, res.Instances)
	}
}

func TestOverlapBucketBoundaries(t *testing.T) {
	// 10 instances: block A in all 10 (Always), B in 9 (B90to100),
	// C in 6 (B60to90), D in 3 (B30to60), E in 1 (B0to30).
	var fps []map[uint64]struct{}
	for i := 0; i < 10; i++ {
		f := fp(0xA)
		if i < 9 {
			f[0xB] = struct{}{}
		}
		if i < 6 {
			f[0xC] = struct{}{}
		}
		if i < 3 {
			f[0xD] = struct{}{}
		}
		if i < 1 {
			f[0xE] = struct{}{}
		}
		fps = append(fps, f)
	}
	res := Overlap(fps)
	want := [NumBuckets]float64{0.2, 0.2, 0.2, 0.2, 0.2}
	for b := range want {
		if diff := res.Shares[b] - want[b]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %s share = %v, want %v", BucketLabels[b], res.Shares[b], want[b])
		}
	}
}

func TestOverlapEmpty(t *testing.T) {
	res := Overlap(nil)
	if res.FootprintBlocks != 0 || res.CommonShare() != 0 {
		t.Errorf("empty overlap = %+v", res)
	}
	res = Overlap([]map[uint64]struct{}{{}, {}})
	if res.FootprintBlocks != 0 {
		t.Errorf("footprint of empty instances = %d", res.FootprintBlocks)
	}
}

func TestFootprintCounterMatchesOverlap(t *testing.T) {
	f := func(seed int64) bool {
		// Build random instances both ways and compare.
		rng := seed
		next := func(n int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng % n
			if v < 0 {
				v = -v
			}
			return v
		}
		var fps []map[uint64]struct{}
		c := NewFootprintCounter()
		for i := 0; i < 12; i++ {
			inst := make(map[uint64]uint64)
			for j := 0; j < 30; j++ {
				a := uint64(next(40)) * 64
				inst[a]++
			}
			set := make(map[uint64]struct{}, len(inst))
			for a := range inst {
				set[a] = struct{}{}
			}
			fps = append(fps, set)
			c.AddInstance(inst)
		}
		want := Overlap(fps)
		got := c.Overlap()
		if got.FootprintBlocks != want.FootprintBlocks || got.Instances != want.Instances {
			return false
		}
		for b := range got.Shares {
			if d := got.Shares[b] - want.Shares[b]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReuseProfile(t *testing.T) {
	c := NewFootprintCounter()
	// Block 0x40 in every instance with 10 accesses each;
	// block 0x80 in one instance with 2 accesses.
	for i := 0; i < 4; i++ {
		inst := map[uint64]uint64{0x40: 10}
		if i == 0 {
			inst[0x80] = 2
		}
		c.AddInstance(inst)
	}
	bands := c.ReuseProfile()
	if len(bands) != NumBuckets {
		t.Fatalf("bands = %d", len(bands))
	}
	if bands[Always].Blocks != 1 || bands[Always].AvgReuse != 10 {
		t.Errorf("Always band = %+v", bands[Always])
	}
	if bands[B0to30].Blocks != 1 || bands[B0to30].AvgReuse != 2 {
		t.Errorf("B0to30 band = %+v", bands[B0to30])
	}
	// The Figure 3 shape: common blocks more reused within an instance.
	if bands[Always].AvgReuse <= bands[B0to30].AvgReuse {
		t.Error("common band not hotter than rare band")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		f float64
		b OverlapBucket
	}{
		{1.0, Always}, {0.99, B90to100}, {0.9, B90to100},
		{0.89, B60to90}, {0.6, B60to90}, {0.59, B30to60},
		{0.3, B30to60}, {0.29, B0to30}, {0.01, B0to30},
	}
	for _, c := range cases {
		if got := bucketOf(c.f); got != c.b {
			t.Errorf("bucketOf(%v) = %v, want %v", c.f, got, c.b)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("alpha", F(1.5, 2))
	tab.AddRow("b", Pct(0.25))
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Demo", "name", "alpha", "1.50", "25.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if N(5) != "5" || U(7) != "7" {
		t.Error("N/U wrong")
	}
}
