package backend

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"strings"
)

// Open resolves a container spec — a bare local path or a URL — to a
// backend, plus the container name the spec selects ("" when the spec
// addresses a whole backend and the caller should List):
//
//	/data/climate.ipcs            one local file
//	/data/ or file:///data/       every container in a local directory
//	file:///data/climate.ipcs     one local file
//	http://host:8080              every container of an ipcompd origin
//	http://host:8080/v1/containers/climate.ipcs
//	                              one container of an ipcompd origin
//	https://cdn/data/climate.ipcs one file on a Range-capable static server
//	https://cdn/data/             a static directory (open by name; no List)
//
// The backend is returned bare; callers that want concurrent identical
// reads joined wrap it with NewCached.
func Open(spec string) (Backend, string, error) {
	scheme, _, hasScheme := strings.Cut(spec, "://")
	if !hasScheme {
		return openPath(spec)
	}
	switch scheme {
	case "file":
		// Proper URL parsing: percent-escapes decode (file:///a/my%20f.ipcs
		// names "my f.ipcs") and the standard file://localhost/ form works;
		// any other host cannot be served from this machine.
		u, err := url.Parse(spec)
		if err != nil {
			return nil, "", fmt.Errorf("backend: bad URL %q: %w", spec, err)
		}
		if u.Host != "" && u.Host != "localhost" {
			return nil, "", fmt.Errorf("backend: file URL %q names host %q; use file:///abs/path for local files", spec, u.Host)
		}
		return openPath(u.Path)
	case "http", "https":
		h, err := NewHTTP(spec)
		if err != nil {
			return nil, "", err
		}
		return h, h.SingleContainer(), nil
	default:
		return nil, "", fmt.Errorf("backend: unsupported scheme %q in %q (want file://, http://, https://, or a local path)", scheme, spec)
	}
}

// openPath resolves a local path to a Dir (directory) or File backend.
func openPath(path string) (Backend, string, error) {
	if path == "" {
		return nil, "", fmt.Errorf("backend: empty container path")
	}
	st, err := os.Stat(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, "", fmt.Errorf("backend: no such container %q", path)
		}
		return nil, "", err
	}
	if st.IsDir() {
		d, err := NewDir(path)
		if err != nil {
			return nil, "", err
		}
		return d, "", nil
	}
	f, err := NewFile(path)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}
