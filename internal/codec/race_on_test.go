//go:build race

package codec

// raceEnabled: under the race detector sync.Pool drops items at random, so
// the allocation pin, which counts on the pooled encoder state, skips.
const raceEnabled = true
