package synth

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"addict/internal/suggest"
)

// NamePrefix marks encoded synthetic-workload names ("synth:...") apart
// from the TPC benchmark names wherever workloads travel by name (sweep
// grids, bench configs, unit IDs).
const NamePrefix = "synth:"

// floatLabel renders a float compactly and reversibly for encoded names
// ("0.99", "0.5", "1").
func floatLabel(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// presets are the shipped scenarios. Each marks a corner of the scenario
// space where the mechanism ranking is expected to move (see the
// characterization experiment in internal/exp):
//
//   - uniform-ro: uniform keys, read-only, short transactions — the
//     smallest per-transaction instruction footprint; migration overhead
//     has the least to amortize against.
//   - zipf-hot-rw: YCSB-style zipfian(0.99) skew, half the ops are
//     updates, four types (one read-only) over shared tables — the
//     contended OLTP regime closest to the TPC mixes.
//   - hotset-write: 64 hot keys absorb 90% of accesses with a write-heavy
//     mix — the extreme data-contention corner; data misses, not
//     instruction misses, dominate.
//   - phase-shift: the schedule flips between a uniform read-mostly phase
//     and a zipfian write-heavy phase every 192 transactions — probing how
//     profiles learned over one phase serve the other.
//   - long-txn: 48-96 ops per transaction with scans, private tables per
//     type — the large read/write-set regime (LRW) where each transaction
//     walks far more storage-manager code than any TPC transaction.
var presets = map[string]Spec{
	"uniform-ro": {
		Name:          NamePrefix + "uniform-ro",
		Tables:        2,
		TxnTypes:      2,
		ReadOnlyTypes: 2,
		OpsMin:        2, OpsMax: 4,
		Skew: Skew{Dist: DistUniform},
	},
	"zipf-hot-rw": {
		Name:          NamePrefix + "zipf-hot-rw",
		Tables:        4,
		TxnTypes:      4,
		ReadOnlyTypes: 1,
		OpsMin:        4, OpsMax: 12,
		Skew:      Skew{Dist: DistZipfian, Theta: 0.99},
		WriteFrac: 0.5, InsertFrac: 0.05,
	},
	"hotset-write": {
		Name:     NamePrefix + "hotset-write",
		Tables:   2,
		TxnTypes: 2,
		OpsMin:   4, OpsMax: 10,
		Skew:      Skew{Dist: DistHotSet, HotKeys: 64, HotProb: 0.9},
		WriteFrac: 0.8,
	},
	"phase-shift": {
		Name:          NamePrefix + "phase-shift",
		Tables:        2,
		TxnTypes:      3,
		ReadOnlyTypes: 1,
		OpsMin:        4, OpsMax: 10,
		Skew:      Skew{Dist: DistUniform},
		WriteFrac: 0.1,
		Phases: []Phase{
			{Traces: 192},
			{Traces: 192,
				Skew:      &Skew{Dist: DistZipfian, Theta: 0.99},
				WriteFrac: floatPtr(0.8)},
		},
	},
	"long-txn": {
		Name:          NamePrefix + "long-txn",
		Tables:        4,
		TxnTypes:      4,
		ReadOnlyTypes: 2,
		PrivateTables: true,
		OpsMin:        48, OpsMax: 96,
		Skew:      Skew{Dist: DistZipfian, Theta: 0.6},
		WriteFrac: 0.3, InsertFrac: 0.05, ScanFrac: 0.15,
	},
}

func floatPtr(v float64) *float64 { return &v }

// Presets returns the shipped preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns a shipped preset spec by bare name ("zipf-hot-rw").
func Preset(name string) (Spec, bool) {
	s, ok := presets[name]
	return s, ok
}

// IsName reports whether a workload name addresses a synthetic workload
// (the "synth:" prefix) rather than a TPC benchmark.
func IsName(name string) bool { return strings.HasPrefix(name, NamePrefix) }

// nearestPreset returns the shipped preset closest to name (see
// suggest.Nearest), or "" when nothing is plausibly close. Unknown-preset
// errors name it, so a typo ("zipf-hot-rm") points at the intended preset
// instead of only echoing the bad name.
func nearestPreset(name string) string { return suggest.Nearest(name, Presets()) }

// EncodeName renders a preset plus overrides as a stable workload name:
// "synth:<preset>[+z<theta>][+w<frac>][+h<keys>]". A zero theta or hotKeys
// omits that override (neither is a valid override value); writeFrac is
// omitted when negative, because 0 is a meaningful write fraction. The
// name round-trips through ParseName and is what sweep unit IDs embed, so
// its format is part of the ID-stability contract.
func EncodeName(preset string, theta, writeFrac float64, hotKeys int) string {
	var b strings.Builder
	b.WriteString(NamePrefix)
	b.WriteString(preset)
	if theta != 0 {
		b.WriteString("+z")
		b.WriteString(floatLabel(theta))
	}
	if writeFrac >= 0 {
		b.WriteString("+w")
		b.WriteString(floatLabel(writeFrac))
	}
	if hotKeys != 0 {
		b.WriteString("+h")
		b.WriteString(strconv.Itoa(hotKeys))
	}
	return b.String()
}

// ParseName resolves an encoded synthetic workload name — "synth:<preset>"
// with optional "+z<theta>" (zipfian skew exponent), "+w<frac>" (base
// write fraction), and "+h<keys>" (hot-set size, selects the hotset
// distribution) overrides — into its spec. A bare preset name (no prefix)
// is accepted too, for command-line convenience. Overrides replace the
// preset's base values; z and h are mutually exclusive (they select
// different distributions). The spec's Name is the canonical encoded form.
func ParseName(name string) (Spec, error) {
	trimmed := strings.TrimPrefix(name, NamePrefix)
	parts := strings.Split(trimmed, "+")
	spec, ok := Preset(parts[0])
	if !ok {
		if near := nearestPreset(parts[0]); near != "" {
			return Spec{}, fmt.Errorf("synth: unknown preset %q (did you mean %q? have %s)",
				parts[0], near, strings.Join(Presets(), ", "))
		}
		return Spec{}, fmt.Errorf("synth: unknown preset %q (have %s)", parts[0], strings.Join(Presets(), ", "))
	}
	seen := map[byte]bool{}
	for _, p := range parts[1:] {
		if len(p) < 2 {
			return Spec{}, fmt.Errorf("synth: %s: empty override %q", name, p)
		}
		// Repeated overrides would make several distinct "canonical" names
		// denote one spec, breaking the name↔ID stability contract.
		if seen[p[0]] {
			return Spec{}, fmt.Errorf("synth: %s: duplicate %c override", name, p[0])
		}
		seen[p[0]] = true
		val := p[1:]
		switch p[0] {
		case 'z':
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: %s: bad theta %q: %v", name, val, err)
			}
			spec.Skew = Skew{Dist: DistZipfian, Theta: v}
		case 'w':
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: %s: bad write fraction %q: %v", name, val, err)
			}
			spec.WriteFrac = v
		case 'h':
			v, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: %s: bad hot-set size %q: %v", name, val, err)
			}
			hotProb := spec.Skew.HotProb
			if hotProb == 0 {
				hotProb = 0.9
			}
			spec.Skew = Skew{Dist: DistHotSet, HotKeys: v, HotProb: hotProb}
		default:
			return Spec{}, fmt.Errorf("synth: %s: unknown override %q (want z, w, or h)", name, p)
		}
	}
	if seen['z'] && seen['h'] {
		return Spec{}, fmt.Errorf("synth: %s: z and h overrides are mutually exclusive", name)
	}
	// Rebuild the name from the parsed values, not the raw input parts, so
	// every spelling of a value ("+w.5", "+w0.50") lands on one canonical
	// name — sweep unit IDs and trace.Set labels stay joinable.
	theta, write, hot := 0.0, -1.0, 0
	if seen['z'] {
		theta = spec.Skew.Theta
	}
	if seen['w'] {
		write = spec.WriteFrac
	}
	if seen['h'] {
		hot = spec.Skew.HotKeys
	}
	spec.Name = EncodeName(parts[0], theta, write, hot)
	if err := spec.withDefaults().Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
