//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops items at random, so
// the allocation pins, which count on the request scratch pool, skip.
const raceEnabled = true
