//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops items at random, so
// checks that count on a pooled item coming back skip.
const raceEnabled = true
