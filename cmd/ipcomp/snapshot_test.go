package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/server"
)

// TestSnapshotPutFollowsIngestRule: `ipcomp snapshot put` and the POST
// endpoints resolve a snapshot's geometry and predictor by one rule. Each
// case creates a field, or appends to a 16x24x24 f64 series tiled 8x8x8
// (cubic unless the case names the series' predictor), through both: both
// accept it with the same manifest, or both refuse it with the same
// message and store nothing. An f32 put onto the f64 series is refused,
// and so is a cubic put onto a linear series. An accepted append of the
// series' own file stores no new tile.
func TestSnapshotPutFollowsIngestRule(t *testing.T) {
	g, err := datagen.GenerateShape("Density", grid.Shape{16, 24, 24})
	if err != nil {
		t.Fatal(err)
	}
	files := t.TempDir()
	f64, f32 := filepath.Join(files, "d64.raw"), filepath.Join(files, "d32.raw")
	narrow := make([]float32, g.Len())
	for i, v := range g.Data() {
		narrow[i] = float32(v)
	}
	if err := writeFloats(f64, g.Data()); err != nil {
		t.Fatal(err)
	}
	if err := writeFloats(f32, narrow); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                        string
		appending                   bool
		shape, chunk, dtype, interp string
		series                      string // the series' predictor, "" for the default
	}{
		{"create", false, "16x24x24", "", "", "", ""},
		{"create f32 tiled", false, "16x24x24", "8x8x8", "f32", "", ""},
		{"create linear", false, "16x24x24", "", "", "linear", ""},
		{"create without a shape", false, "", "8x8x8", "", "", ""},
		{"create with bad extents", false, "16xx24", "", "", "", ""},
		{"create with a bad dtype", false, "16x24x24", "", "f16", "", ""},
		{"create with a bad predictor", false, "16x24x24", "", "", "spline", ""},
		{"append inherits", true, "", "", "", "", ""},
		{"append agrees", true, "16x24x24", "8x8x8", "float64", "cubic", ""},
		{"append changes the shape", true, "24x24x16", "", "", "", ""},
		{"append changes the tiling", true, "", "16x16x16", "", "", ""},
		{"append changes the dtype", true, "", "", "f32", "", ""},
		{"append inherits the predictor", true, "", "", "", "", "linear"},
		{"append agrees on the predictor", true, "", "", "", "linear", "linear"},
		{"append changes the predictor", true, "", "", "", "cubic", "linear"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := f64
			if tc.dtype == "f32" {
				file = f32
			}
			q := url.Values{}
			args := []string{"-cas", t.TempDir(), "-field", "density"}
			for _, p := range [][2]string{{"shape", tc.shape}, {"chunk", tc.chunk}, {"dtype", tc.dtype}, {"interp", tc.interp}} {
				if p[1] != "" {
					q.Set(p[0], p[1])
					args = append(args, "-"+p[0], p[1])
				}
			}
			if !tc.appending {
				q.Set("eb", "1e-4")
				args = append(args, "-eb", "1e-4")
			}

			series := url.Values{"shape": {"16x24x24"}, "chunk": {"8x8x8"}, "eb": {"1e-4"}}
			setup := []string{"-cas", args[1], "-field", "density", "-shape", "16x24x24", "-chunk", "8x8x8", "-eb", "1e-4"}
			if tc.series != "" {
				series.Set("interp", tc.series)
				setup = append(setup, "-interp", tc.series)
			}

			// The CLI.
			before := 0
			if tc.appending {
				before = 1
				if err := cmdSnapshotPut(append(setup, f64)); err != nil {
					t.Fatal(err)
				}
			}
			cliErr := cmdSnapshotPut(append(args, file))
			cli, err := cas.Open(args[1])
			if err != nil {
				t.Fatal(err)
			}

			// The daemon.
			c, err := cas.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New()
			if err := srv.EnableIngest(server.IngestOptions{CAS: c}); err != nil {
				t.Fatal(err)
			}
			defer srv.CloseIngest()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			path := "/v1/datasets/density"
			if tc.appending {
				if code, msg := post(t, ts.URL+path, series, f64); code != http.StatusCreated {
					t.Fatalf("creating the series: %d %s", code, msg)
				}
				path += "/snapshots"
			}
			code, msg := post(t, ts.URL+path, q, file)

			if cliErr != nil {
				if code != http.StatusBadRequest || msg != cliErr.Error() {
					t.Fatalf("snapshot put refused with %q; the POST answered %d %q", cliErr, code, msg)
				}
				if n := len(cli.Snapshots()); n != before {
					t.Fatalf("a refused put left %d snapshots, want %d", n, before)
				}
				return
			}
			if code != http.StatusCreated {
				t.Fatalf("snapshot put succeeded; the POST answered %d %q", code, msg)
			}
			want, _ := c.Manifest("density", before)
			got, ok := cli.Manifest("density", before)
			if !ok || want == nil {
				t.Fatalf("no manifest at t%d: CLI %v, daemon %v", before, ok, want != nil)
			}
			if !grid.Shape(got.Shape).Equal(want.Shape) || !grid.Shape(got.Chunk).Equal(want.Chunk) ||
				got.Scalar != want.Scalar || got.ErrorBound != want.ErrorBound || len(got.Tiles) != len(want.Tiles) {
				t.Fatalf("snapshot put stored %v %v scalar %d eb %g, %d tiles; the POST %v %v scalar %d eb %g, %d tiles",
					got.Shape, got.Chunk, got.Scalar, got.ErrorBound, len(got.Tiles),
					want.Shape, want.Chunk, want.Scalar, want.ErrorBound, len(want.Tiles))
			}
			for i := range want.Tiles {
				if got.Tiles[i].Score != want.Tiles[i].Score {
					t.Fatalf("tile %d: snapshot put stored another blob than the POST", i)
				}
			}
			// The series' own file again, under its own parameters: every
			// tile is the one before it.
			if tc.appending && file == f64 {
				first, _ := c.Manifest("density", 0)
				for i := range want.Tiles {
					if want.Tiles[i].Score != first.Tiles[i].Score {
						t.Fatalf("tile %d: the append stored a new blob for the series' own values", i)
					}
				}
			}
		})
	}
}

// post sends the file as a write and returns the status and, on a
// refusal, the error message.
func post(t *testing.T, u string, q url.Values, file string) (int, string) {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(u+"?"+q.Encode(), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, doc.Error
}
