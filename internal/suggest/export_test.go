package suggest

// Distance and Cutoff expose the matcher's internals to the external
// tests, which check Nearest against the real candidate lists.
var (
	Distance = distance
	Cutoff   = cutoff
)
