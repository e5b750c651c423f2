//go:build race

package aimes_test

// raceEnabled: the race detector is on, and sync.Pool drops a quarter of
// what it is given, so allocation counts mean nothing.
const raceEnabled = true
