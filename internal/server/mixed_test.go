package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/ipcomp/client"
)

// The four kinds of traffic a serving node sees at once.
const (
	mixCold   = iota // raw GET of a randomly placed half-extent box
	mixWarm          // raw GET of one fixed box, cached after its first hit
	mixPlanes        // one planes fetch through the client
	mixRefine        // planes fetch at a coarse bound, then two token refines
)

// mixedField is a served dataset and the field it was packed from: every
// response is checked against the source, not against another retrieval.
type mixedField struct {
	name string
	src  *grid.Grid[float64]
	eb   float64
}

// mixedOp is one request, drawn before any is sent.
type mixedOp struct {
	kind   int
	url    string
	field  *mixedField
	lo, hi []int
	bound  float64
}

// mixedRun is what a run saw besides errors, which fail the test directly.
type mixedRun struct {
	degraded  atomic.Int64 // responses that advertised a coarser bound than asked
	forwarded atomic.Int64 // raw responses served by another node than the one asked
}

// warmBox is the fixed region warm repeats, planes fetches and refine
// chains all read: the centered box that leaves an eighth free per side.
func warmBox(shape grid.Shape) (lo, hi []int) {
	for _, s := range shape {
		lo = append(lo, s/8)
		hi = append(hi, s-s/8)
	}
	return lo, hi
}

// drawMixedOps draws n requests from the seed: kinds in strict rotation
// (so every kind is present whatever n is) and then shuffled, nodes round
// robin, fields, cold boxes and bounds at random.
func drawMixedOps(seed int64, n int, kinds []int, urls []string, fields []*mixedField) []mixedOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]mixedOp, n)
	for i := range ops {
		f := fields[rng.Intn(len(fields))]
		op := mixedOp{kind: kinds[i%len(kinds)], field: f}
		shape := f.src.Shape()
		op.lo, op.hi = warmBox(shape)
		switch op.kind {
		case mixCold:
			// Half the extent per dimension on a lattice of eighths: enough
			// distinct boxes that most draws meet tiles at a fidelity this
			// bound has not seen.
			for d, s := range shape {
				off := rng.Intn(5) * (s / 8)
				op.lo[d], op.hi[d] = off, off+s/2
			}
			op.bound = []float64{4, 16, 64}[rng.Intn(3)] * f.eb
		case mixWarm:
			op.bound = 64 * f.eb
		case mixPlanes:
			op.bound = []float64{16, 64}[rng.Intn(2)] * f.eb
		case mixRefine:
			op.bound = 256 * f.eb
		}
		ops[i] = op
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].url = urls[i%len(urls)]
	}
	return ops
}

// checkValues fails unless data is the box [lo, hi) of the field's source
// within guar everywhere.
func (f *mixedField) checkValues(t *testing.T, what string, lo, hi []int, data []float64, guar float64) {
	t.Helper()
	if want := (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]); len(data) != want {
		t.Errorf("%s: %d values, want %d", what, len(data), want)
		return
	}
	i := 0
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			for z := lo[2]; z < hi[2]; z++ {
				if d := math.Abs(data[i] - f.src.At(x, y, z)); !(d <= guar) {
					t.Errorf("%s: value at (%d,%d,%d) is off the source by %g, advertised %g", what, x, y, z, d, guar)
					return
				}
				i++
			}
		}
	}
}

// doRaw sends one raw request and checks the body against the source for
// the error its headers advertise.
func (op *mixedOp) doRaw(t *testing.T, hc *http.Client, run *mixedRun) {
	u := fmt.Sprintf("%s/v1/datasets/%s/region?lo=%d,%d,%d&hi=%d,%d,%d&bound=%s", op.url, op.field.name,
		op.lo[0], op.lo[1], op.lo[2], op.hi[0], op.hi[1], op.hi[2], formatFloat(op.bound))
	resp, err := hc.Get(u)
	if err != nil {
		t.Errorf("GET %s: %v", u, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, body error %v: %s", u, resp.StatusCode, err, bytes.TrimSpace(body[:min(len(body), 200)]))
		return
	}
	guar, err := strconv.ParseFloat(resp.Header.Get("X-Ipcomp-Guaranteed-Error"), 64)
	if err != nil {
		t.Errorf("GET %s: guaranteed-error header %q", u, resp.Header.Get("X-Ipcomp-Guaranteed-Error"))
		return
	}
	if resp.Header.Get("X-Ipcomp-Degraded") == "true" {
		run.degraded.Add(1)
	} else if guar > op.bound {
		t.Errorf("GET %s: guaranteed error %g above the requested bound without the degraded header", u, guar)
	}
	if resp.Header.Get(ServedByHeader) != "" {
		run.forwarded.Add(1)
	}
	data := make([]float64, len(body)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	op.field.checkValues(t, "GET "+u, op.lo, op.hi, data, guar)
}

// doPlanes fetches through the client and, for a refine chain, walks the
// token down two rungs; the region is checked against the source after
// every round for the error that round's response certifies.
func (op *mixedOp) doPlanes(t *testing.T, hc *http.Client, run *mixedRun) {
	ctx := context.Background()
	reg, err := client.New(op.url, client.WithHTTPClient(hc)).Region(ctx, op.field.name, op.lo, op.hi, op.bound)
	if err != nil {
		t.Errorf("planes %s at %s: %v", op.field.name, op.url, err)
		return
	}
	check := func(round string, want float64) {
		what := fmt.Sprintf("planes %s at %s, %s", op.field.name, op.url, round)
		if reg.Bound() > want {
			run.degraded.Add(1)
		}
		if reg.GuaranteedError() > reg.Bound() {
			t.Errorf("%s: guaranteed error %g above the certified bound %g", what, reg.GuaranteedError(), reg.Bound())
		}
		op.field.checkValues(t, what, op.lo, op.hi, reg.Data(), reg.GuaranteedError())
	}
	check("first fetch", op.bound)
	if op.kind != mixRefine {
		return
	}
	for _, mult := range []float64{16, 4} {
		if err := reg.Refine(ctx, mult*op.field.eb); err != nil {
			t.Errorf("refine %s at %s to %g eb: %v", op.field.name, op.url, mult, err)
			return
		}
		check(fmt.Sprintf("refined to %g eb", mult), mult*op.field.eb)
	}
}

// runMixed sends the ops from four goroutines at once.
func runMixed(t *testing.T, ops []mixedOp) *mixedRun {
	t.Helper()
	run := &mixedRun{}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				if op := &ops[i]; op.kind == mixCold || op.kind == mixWarm {
					op.doRaw(t, hc, run)
				} else {
					op.doPlanes(t, hc, run)
				}
			}
		}()
	}
	wg.Wait()
	return run
}

// newMixedNode serves one 32³ field in eight 16³ tiles, packed so that
// the tiles are progressive and a plan's size follows its bound.
func newMixedNode(t *testing.T) (*Server, *store.Store, *mixedField, string) {
	t.Helper()
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	f := &mixedField{name: "density", src: g, eb: 1e-6 * g.ValueRange()}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := store.WriteOptions{ErrorBound: f.eb, ChunkShape: grid.Shape{16, 16, 16}, ProgressiveThreshold: 64}
	if err := store.Add(w, f.name, g, opt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	if err := srv.AddStore("mixed.ipcs", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, f, ts.URL
}

// TestMixedTraffic is what a serving node owes its clients under a real
// mix: cold raw reads, warm repeats, planes fetches and token-refine
// chains, interleaved from four goroutines (CI runs it under the race
// detector), all finish without a client-visible error, and every
// response — degraded ones included — is the source field within the
// error it advertises. On one node; round robin over a 3-node ring, where
// a third of the requests are forwarded; and on a node whose planes byte
// budget cannot hold the tight plans, which must then answer at a coarser
// bound rather than reject. Fixed seeds, a fixed number of requests.
func TestMixedTraffic(t *testing.T) {
	allKinds := []int{mixCold, mixWarm, mixPlanes, mixRefine}

	t.Run("node", func(t *testing.T) {
		_, _, f, url := newMixedNode(t)
		run := runMixed(t, drawMixedOps(1, 64, allKinds, []string{url}, []*mixedField{f}))
		if n := run.degraded.Load(); n != 0 {
			t.Errorf("%d responses degraded on a node without admission limits", n)
		}
	})

	t.Run("ring", func(t *testing.T) {
		env := newClusterEnv(t, 6, 2, nil)
		var urls []string
		for _, n := range env.nodes {
			urls = append(urls, n.ts.URL)
		}
		var fields []*mixedField
		for _, ds := range env.datasets {
			fields = append(fields, &mixedField{name: ds, src: env.fields[ds], eb: env.eb})
		}
		run := runMixed(t, drawMixedOps(2, 96, allKinds, urls, fields))
		if n := run.degraded.Load(); n != 0 {
			t.Errorf("%d responses degraded on a ring without admission limits", n)
		}
		if run.forwarded.Load() == 0 {
			t.Error("no raw request was forwarded: round robin over the ring did not leave the asked node")
		}
	})

	t.Run("budget", func(t *testing.T) {
		srv, st, f, url := newMixedNode(t)
		// A budget a quarter of the way from the coarsest plan of the warm
		// box to the tightest one the chains ask for: tight requests cannot
		// fit, and every step of the degradation ladder still has room.
		lo, hi := warmBox(f.src.Shape())
		planBytes := func(bound float64) int64 {
			rp, err := st.PlanRegion(f.name, lo, hi, bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			n, err := planTotal(rp, len(lo))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		full, minimal := planBytes(4*f.eb), planBytes(f.eb*math.Pow(2, 50))
		if minimal >= full {
			t.Fatalf("minimal plan %d >= full plan %d: plans do not follow the bound", minimal, full)
		}
		srv.SetAdmission(AdmissionOptions{MaxRequestBytes: minimal + (full-minimal)/4, Degrade: true})
		// Raw bodies cannot shrink to a byte budget, so this mix is planes
		// only.
		run := runMixed(t, drawMixedOps(3, 32, []int{mixPlanes, mixRefine}, []string{url}, []*mixedField{f}))
		if run.degraded.Load() == 0 {
			t.Error("no response was degraded: the byte budget did not bite")
		}
		if rej := srv.adm.rejected.Load(); rej != 0 {
			t.Errorf("%d requests rejected; over-budget planes must degrade", rej)
		}
	})
}
