//go:build race

package server

// raceEnabled: the race detector is on, and sync.Pool drops a quarter of
// what it is given, so a pooled buffer is now and then allocated afresh.
const raceEnabled = true
