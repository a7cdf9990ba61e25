package stats

// OverlapBucket labels the appearance-frequency bands of Figure 2's pies.
type OverlapBucket int

// The five frequency bands: a block appearing in all instances is Always;
// one appearing in 95% of them is B90to100; and so on.
const (
	B0to30 OverlapBucket = iota
	B30to60
	B60to90
	B90to100
	Always

	NumBuckets = 5
)

// BucketLabels are the Figure 2 legend strings.
var BucketLabels = [NumBuckets]string{"[0,30)%", "[30,60)%", "[60,90)%", "[90,100)%", "100%"}

// bucketOf classifies an appearance frequency in (0, 1].
func bucketOf(freq float64) OverlapBucket {
	switch {
	case freq >= 1.0:
		return Always
	case freq >= 0.9:
		return B90to100
	case freq >= 0.6:
		return B60to90
	case freq >= 0.3:
		return B30to60
	default:
		return B0to30
	}
}

// OverlapResult is one Figure 2 pie: how the union footprint of a group of
// instances distributes over appearance-frequency bands.
type OverlapResult struct {
	// Shares[b] is the fraction of the union footprint in bucket b;
	// the shares sum to 1 (for a non-empty footprint).
	Shares [NumBuckets]float64
	// FootprintBlocks is the union footprint size in 64-byte blocks.
	FootprintBlocks int
	// Instances is the number of instances analyzed.
	Instances int
}

// CommonShare returns the fraction of the footprint present in at least 90%
// of instances (the two darkest slices) — the paper's headline "overlap"
// number (e.g. "98% overlap in instructions" for TradeStatus).
func (r OverlapResult) CommonShare() float64 {
	return r.Shares[B90to100] + r.Shares[Always]
}

// RareShare returns the lightest slice ([0,30)) — divergent code such as
// TPC-B insert's allocate-page path.
func (r OverlapResult) RareShare() float64 { return r.Shares[B0to30] }

// Overlap computes the Figure 2 bucketing for a group of per-instance
// footprints (sets of block addresses).
func Overlap(footprints []map[uint64]struct{}) OverlapResult {
	res := OverlapResult{Instances: len(footprints)}
	if len(footprints) == 0 {
		return res
	}
	counts := make(map[uint64]int)
	for _, fp := range footprints {
		for a := range fp {
			counts[a]++
		}
	}
	res.FootprintBlocks = len(counts)
	if len(counts) == 0 {
		return res
	}
	n := float64(len(footprints))
	for _, c := range counts {
		res.Shares[bucketOf(float64(c)/n)]++
	}
	for b := range res.Shares {
		res.Shares[b] /= float64(res.FootprintBlocks)
	}
	return res
}

// FootprintCounter incrementally accumulates block appearance counts and
// per-instance access counts without retaining the footprints themselves —
// the streaming form used when instance counts are large.
type FootprintCounter struct {
	appearances map[uint64]int // instances containing each block
	accesses    map[uint64]uint64
	instances   int
}

// NewFootprintCounter returns an empty counter.
func NewFootprintCounter() *FootprintCounter {
	return &FootprintCounter{
		appearances: make(map[uint64]int),
		accesses:    make(map[uint64]uint64),
	}
}

// AddInstance folds one instance's accesses (block address → access count)
// into the counter.
func (c *FootprintCounter) AddInstance(accesses map[uint64]uint64) {
	c.instances++
	for a, n := range accesses {
		c.appearances[a]++
		c.accesses[a] += n
	}
}

// Instances returns the number of instances folded in.
func (c *FootprintCounter) Instances() int { return c.instances }

// Overlap produces the Figure 2 bucketing from the accumulated counts.
func (c *FootprintCounter) Overlap() OverlapResult {
	res := OverlapResult{Instances: c.instances, FootprintBlocks: len(c.appearances)}
	if c.instances == 0 || len(c.appearances) == 0 {
		return res
	}
	n := float64(c.instances)
	for _, cnt := range c.appearances {
		res.Shares[bucketOf(float64(cnt)/n)]++
	}
	for b := range res.Shares {
		res.Shares[b] /= float64(len(c.appearances))
	}
	return res
}

// ReuseBand is one x-axis band of Figure 3: blocks grouped by
// cross-instance commonality, with their average within-instance reuse.
type ReuseBand struct {
	Bucket OverlapBucket
	// Blocks is the number of distinct blocks in the band.
	Blocks int
	// AvgReuse is the mean, over blocks in the band, of (total accesses /
	// instances containing the block) — Figure 3's y-axis.
	AvgReuse float64
}

// ReuseProfile computes Figure 3's "average number of accesses to each
// memory address per instance", grouped by commonality band (the paper
// plots per-address points ordered by commonality; the bands summarize the
// same ordering textually).
func (c *FootprintCounter) ReuseProfile() []ReuseBand {
	type acc struct {
		blocks int
		sum    float64
	}
	var bands [NumBuckets]acc
	n := float64(c.instances)
	for a, cnt := range c.appearances {
		b := bucketOf(float64(cnt) / n)
		bands[b].blocks++
		bands[b].sum += float64(c.accesses[a]) / float64(cnt)
	}
	out := make([]ReuseBand, 0, NumBuckets)
	for b := 0; b < NumBuckets; b++ {
		band := ReuseBand{Bucket: OverlapBucket(b), Blocks: bands[b].blocks}
		if bands[b].blocks > 0 {
			band.AvgReuse = bands[b].sum / float64(bands[b].blocks)
		}
		out = append(out, band)
	}
	return out
}
