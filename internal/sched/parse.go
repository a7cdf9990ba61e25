package sched

import (
	"fmt"
	"strings"

	"addict/internal/suggest"
)

// ParseMechanism resolves a mechanism name to its canonical Mechanism
// constant, accepting every implemented family (AllMechanisms) in any
// letter case. Unknown names get a nearest-name suggestion (mirroring
// synth.ParseName's unknown-preset errors), so a typo like "ADICT" or
// "htm" points at the intended mechanism instead of a bare list.
func ParseMechanism(name string) (Mechanism, error) {
	for _, m := range AllMechanisms {
		if strings.EqualFold(name, string(m)) {
			return m, nil
		}
	}
	return "", unknownMechanism(name)
}

func mechanismNames() []string {
	names := make([]string, len(AllMechanisms))
	for i, m := range AllMechanisms {
		names[i] = string(m)
	}
	return names
}

// unknownMechanism builds the unknown-name error, with a did-you-mean
// suggestion when some known mechanism is within edit distance.
func unknownMechanism(name string) error {
	names := mechanismNames()
	have := strings.Join(names, ", ")
	if near := suggest.Nearest(name, names); near != "" {
		return fmt.Errorf("sched: unknown mechanism %q (did you mean %q? have %s)", name, near, have)
	}
	return fmt.Errorf("sched: unknown mechanism %q (have %s)", name, have)
}
