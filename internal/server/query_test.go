package server

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
)

// FuzzRegionQuery feeds arbitrary raw queries, keys and ranks to the
// region endpoint's parsers, queryParam then parseCoordsInto, chained as
// serveRegion chains them. Every input ends in an error or in exactly
// rank coordinates, which print back to a list that parses to the same
// coordinates; neither parser panics, and together they allocate no more
// than a small multiple of the input.
func FuzzRegionQuery(f *testing.F) {
	for _, seed := range []struct {
		query, key string
		rank       uint8
	}{
		{"lo=0,0,0&hi=32,32,32&bound=0.01", "lo", 2},
		{"hi=1,2&lo=3,4", "hi", 1},
		{"lo=%2C1%2C2", "lo", 2},
		{"lo=1+,2,3", "lo", 2},
		{"lo=%zz", "lo", 0},
		{"lo= 1 , 2 ", "lo", 1},
		{"lo=1,2,3,4,5", "lo", 3},
		{"lo=-9223372036854775808,9223372036854775807", "lo", 1},
		{"lo=9223372036854775808", "lo", 0},
		{"lo", "lo", 0},
		{"&&=&lo=&", "lo", 0},
		{"lo=1,,2", "lo", 2},
	} {
		f.Add(seed.query, seed.key, seed.rank)
	}
	f.Fuzz(func(t *testing.T, query, key string, r uint8) {
		rank := int(r%grid.MaxDims) + 1
		parse := func() (coords []int, err error) {
			v, err := queryParam(query, key)
			if err != nil {
				return nil, err
			}
			return parseCoordsInto(nil, v, rank)
		}
		// The allocation count is process-wide, and a fuzzing worker has
		// goroutines of its own: average over repeats to drown them.
		const reps = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			parse()
		}
		runtime.ReadMemStats(&after)
		if grew := (after.TotalAlloc - before.TotalAlloc) / reps; grew > 16*uint64(len(query)+len(key))+1<<10 {
			t.Fatalf("parsing a %d-byte query allocated %d bytes", len(query), grew)
		}
		coords, err := parse()
		if err != nil {
			if coords != nil {
				t.Fatalf("error %v beside coordinates %v", err, coords)
			}
			return
		}
		if len(coords) != rank {
			t.Fatalf("%q parsed to %d coordinates at rank %d", query, len(coords), rank)
		}
		parts := make([]string, rank)
		for i, c := range coords {
			parts[i] = strconv.Itoa(c)
		}
		back, err := parseCoordsInto(nil, strings.Join(parts, ","), rank)
		if err != nil || !slices.Equal(back, coords) {
			t.Fatalf("%v printed and parsed back to %v, %v", coords, back, err)
		}
	})
}
