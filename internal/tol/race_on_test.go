//go:build race

package tol

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation ceilings are not checked under it.
const raceEnabled = true
