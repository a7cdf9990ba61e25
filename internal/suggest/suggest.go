// Package suggest picks the "did you mean" candidate for an unknown name.
// Mechanism names (sched.ParseMechanism) and synthetic workload presets
// (synth.ParseName) arrive from command-line flags and HTTP bodies, and
// both answer a typo with the nearest known name.
package suggest

import "strings"

// Nearest returns the candidate closest to name by case-insensitive
// Levenshtein distance, or "" when nothing is plausibly close: more than a
// third of the name (at least 2 edits) would have to change. Ties go to
// the earliest candidate.
func Nearest(name string, candidates []string) string {
	lower := strings.ToLower(name)
	best, bestDist := "", -1
	for _, c := range candidates {
		d := distance(lower, strings.ToLower(c))
		if bestDist < 0 || d < bestDist {
			best, bestDist = c, d
		}
	}
	if bestDist < 0 || bestDist > cutoff(name) {
		return ""
	}
	return best
}

// cutoff is the largest edit distance at which Nearest still suggests a
// candidate for name.
func cutoff(name string) int {
	return max((len(name)+2)/3, 2)
}

// distance is the Levenshtein distance between a and b (two-row DP).
func distance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
