package client

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
)

// TestMain fails the package if any test left a goroutine behind: a
// fetch must not return before its last worker has. Not under -fuzz, where
// the testing package keeps goroutines of its own (the target checks every
// input itself).
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != "" || flag.Lookup("test.fuzzworker").Value.String() == "true"
	if code == 0 && !fuzzing && !settlesTo(before) {
		fmt.Fprintf(os.Stderr, "goroutines leaked: %d at start, %d now\n", before, runtime.NumGoroutine())
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		code = 1
	}
	os.Exit(code)
}

// settlesTo reports whether the goroutine count comes back down to n;
// goroutines that are on their way out get a moment to finish.
func settlesTo(n int) bool {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// checkNoLeak is the same check for one test (or one fuzz input).
func checkNoLeak(tb testing.TB) {
	before := runtime.NumGoroutine()
	tb.Cleanup(func() {
		if !settlesTo(before) {
			tb.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
	})
}

// fixture is a one-dataset server and the field it serves.
type fixture struct {
	h     http.Handler
	shape grid.Shape
	src   []float64 // the source values (float32 datasets: as narrowed)
	eb    float64
}

// newFixture packs a generated field, at either width, into a container
// of the given tiling and puts a server in front of it. prog is the
// smallest level that is stored progressively (0: core's default, under
// which a 16³ tile has no such level and every plan loads all of it).
func newFixture(tb testing.TB, f32 bool, gen string, shape, chunk grid.Shape, rel float64, prog int) *fixture {
	tb.Helper()
	g, err := datagen.GenerateShape(gen, shape)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &fixture{shape: shape, eb: rel * g.ValueRange()}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	opt := store.WriteOptions{ErrorBound: fx.eb, ChunkShape: chunk, ProgressiveThreshold: prog}
	if f32 {
		g32 := grid.Narrow(g)
		fx.src = grid.WidenSlice(g32.Data())
		err = store.Add(w, "field", g32, opt)
	} else {
		fx.src = g.Data()
		err = store.Add(w, "field", g, opt)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New()
	if err := srv.AddStore("c.ipcs", st); err != nil {
		tb.Fatal(err)
	}
	fx.h = srv.Handler()
	return fx
}

// direct is an http.RoundTripper that calls the handler on the caller's
// goroutine — no sockets, so what a test or benchmark times and leaks is
// the client's own. tamper, when set, sees every response before the
// client does, with the number of the request it answers (from 1).
type direct struct {
	h      http.Handler
	n      int
	tamper func(n int, resp *http.Response)
}

func (d *direct) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	resp := rec.Result()
	d.n++
	if d.tamper != nil {
		d.tamper(d.n, resp)
	}
	return resp, nil
}

func (fx *fixture) client(tamper func(n int, resp *http.Response)) *Client {
	return New("http://direct", WithHTTPClient(&http.Client{Transport: &direct{h: fx.h, tamper: tamper}}))
}

// check compares a region with the source under the error the region
// itself advertises.
func (fx *fixture) check(tb testing.TB, reg *Region, lo, hi []int) {
	tb.Helper()
	g := reg.GuaranteedError()
	data := reg.Data()
	strides := fx.shape.Strides()
	i := 0
	for z := lo[0]; z < hi[0]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[2]; x < hi[2]; x++ {
				want := fx.src[z*strides[0]+y*strides[1]+x*strides[2]]
				if d := data[i] - want; d > g || d < -g || d != d {
					tb.Fatalf("value at (%d,%d,%d) is %g, source %g: off by %g, guaranteed %g", z, y, x, data[i], want, d, g)
				}
				i++
			}
		}
	}
}
