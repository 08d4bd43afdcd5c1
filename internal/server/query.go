package server

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// queryParam extracts one key's value from a raw query string without
// building the url.Values map — the region endpoint reads six known keys
// per request, and the map (plus its slices) was the single largest
// allocation on the warm serve path. Values containing escapes fall back
// to url.QueryUnescape; plain values (every coordinate list a Go client
// or curl sends unescaped) are returned as zero-copy substrings.
func queryParam(query, key string) (string, error) {
	for len(query) > 0 {
		pair := query
		if i := strings.IndexByte(pair, '&'); i >= 0 {
			pair, query = pair[:i], pair[i+1:]
		} else {
			query = ""
		}
		eq := strings.IndexByte(pair, '=')
		k, v := pair, ""
		if eq >= 0 {
			k, v = pair[:eq], pair[eq+1:]
		}
		if k != key {
			continue
		}
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			return v, nil
		}
		dec, err := url.QueryUnescape(v)
		if err != nil {
			return "", fmt.Errorf("query parameter %q: %v", key, err)
		}
		return dec, nil
	}
	return "", nil
}

// parseCoordsInto parses a comma-separated coordinate list of the given
// rank into dst[:0]'s backing array, avoiding the strings.Split slice.
func parseCoordsInto(dst []int, s string, rank int) ([]int, error) {
	out := dst[:0]
	rest := s
	for {
		part, last := rest, true
		if i := strings.IndexByte(rest, ','); i >= 0 {
			part, rest, last = rest[:i], rest[i+1:], false
		}
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || len(out) == rank {
			return nil, coordsError(rank, s)
		}
		out = append(out, v)
		if last {
			break
		}
	}
	if len(out) != rank {
		return nil, coordsError(rank, s)
	}
	return out, nil
}

// coordsError reports a malformed coordinate list, quoting no more than
// its first 64 bytes: the list comes from the request, and a 400 must not
// echo an unbounded one back, inflated up to fourfold by the quoting.
func coordsError(rank int, s string) error {
	const quoted = 64
	if len(s) > quoted {
		return fmt.Errorf("want %d comma-separated coordinates, got %q…", rank, s[:quoted])
	}
	return fmt.Errorf("want %d comma-separated coordinates, got %q", rank, s)
}
