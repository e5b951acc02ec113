package scaleout

// MatchRef and FlopCompile serve the external tests, which price stages
// with the t10 compiler (an import the package's own tests cannot make).
var (
	MatchRef    = matchRef
	FlopCompile = flopCompile
)
