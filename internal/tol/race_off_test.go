//go:build !race

package tol

const raceEnabled = false
