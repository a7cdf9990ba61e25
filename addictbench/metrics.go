package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's contract: an untraced run reports exactly endToEnd, a
// traced run exactly perLayer (BENCHMARK.json at the repository root lists
// the same names and units; the smoke test keeps the three in step).
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics every workload reports from an untraced run.
// Each one is defined, and never zero, on all three workloads; README.md
// gives the per-workload meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_latency_ms", "ms"},
	{"sim_events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"addict_makespan_ratio", "ratio"},
}

// mechanisms are the six scheduling mechanisms, in sched.AllMechanisms
// order; per-mechanism layer metrics are reported for each.
var mechanisms = []string{"Baseline", "STREX", "SLICC", "ADDICT", "HTMSPEC", "CHAIN"}

// perLayer are the metrics a traced run reports. A layer the workload does
// not exercise reports 0 (README.md lists which workload each layer should
// leave unchanged).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"workload.populate_s", "s"},
		{"workload.warmup_s", "s"},
		{"workload.emit_s", "s"},
		{"workload.traces", "count"},
		{"workload.events", "count"},
		{"workload.emit_events_per_s", "1/s"},
		{"core.profile_s", "s"},
		{"core.migration_points", "count"},
		{"sched.replay_s", "s"},
	}
	for _, mech := range mechanisms {
		m = append(m, metricSpec{"sched.ns_per_event." + mech, "ns"})
	}
	m = append(m,
		metricSpec{"sched.allocs_per_event", "allocs/event"},
		metricSpec{"sim.events", "count"},
	)
	for _, mech := range mechanisms {
		m = append(m,
			metricSpec{"cache.l1i_mpki." + mech, "MPKI"},
			metricSpec{"cache.l1d_mpki." + mech, "MPKI"},
			metricSpec{"cache.llc_mpki." + mech, "MPKI"},
			metricSpec{"sim.switches_per_ki." + mech, "1/KI"},
			metricSpec{"sim.overhead_share." + mech, "share"},
		)
	}
	m = append(m,
		metricSpec{"sched.aborts.HTMSPEC", "count"},
		metricSpec{"store.encode_mb_per_s", "MB/s"},
		metricSpec{"store.put_s", "s"},
		metricSpec{"store.get_s", "s"},
		metricSpec{"store.decode_mb_per_s", "MB/s"},
		metricSpec{"store.hits", "count"},
		metricSpec{"store.misses", "count"},
		metricSpec{"store.writes", "count"},
		metricSpec{"store.written_mb", "MB"},
		metricSpec{"pool.lru_hits", "count"},
		metricSpec{"pool.lru_misses", "count"},
		metricSpec{"pool.lru_evictions", "count"},
		metricSpec{"pool.lru_bytes", "B"},
		metricSpec{"sweep.units", "count"},
		metricSpec{"sweep.emit_s", "s"},
		metricSpec{"serve.schedule_p50_ms", "ms"},
		metricSpec{"serve.profile_p50_ms", "ms"},
		metricSpec{"serve.sweep_p50_ms", "ms"},
		metricSpec{"serve.computations", "count"},
		metricSpec{"serve.coalesced_hits", "count"},
		metricSpec{"serve.rejected", "count"},
		metricSpec{"serve.cpu_share", "share"},
		metricSpec{"dist.sweep_p50_ms", "ms"},
		metricSpec{"dist.overhead_ratio", "ratio"},
		metricSpec{"dist.leases", "count"},
		metricSpec{"dist.requeues", "count"},
		metricSpec{"dist.duplicates", "count"},
		metricSpec{"dist.worker_store_hits", "count"},
		metricSpec{"loadgen.sent", "count"},
		metricSpec{"loadgen.late_p99_ms", "ms"},
		metricSpec{"loadgen.read_p50_ms", "ms"},
		metricSpec{"loadgen.read_p99_ms", "ms"},
		metricSpec{"loadgen.compute_p50_ms", "ms"},
		metricSpec{"loadgen.compute_p90_ms", "ms"},
		metricSpec{"tracing.overhead_ratio", "ratio"},
	)
	return m
}()

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// div returns a/b, or 0 when b is 0 (JSON cannot carry NaN or Inf).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for this
// process (Linux clear_refs "5"), so peakRSSMB measures one phase. Failure
// leaves the lifetime peak in place, which only overstates.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM) in
// MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
