//go:build !race

package aimes_test

const raceEnabled = false
