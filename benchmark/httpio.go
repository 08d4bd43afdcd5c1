package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/ipcomp/client"
)

// target is one served dataset as the generator sees it: where to ask,
// what the true values are, and where verdicts go. Every read of the
// serving workloads and of ingest_series goes through raw, region or
// refine below, which stop the clock, ask the oracle and count the
// operation — in that order.
type target struct {
	hc   *http.Client
	cl   *client.Client
	base string
	eb   float64 // the dataset's absolute bound: what a request for bound 0 asks for
	f    *field
	t    *tally
}

// asked is the bound a request's answer must honour.
func (tg *target) asked(bound float64) float64 {
	if bound == 0 {
		return tg.eb
	}
	return bound
}

// scratch is one worker's reusable response buffers.
type scratch struct {
	body []byte
	f32  []float32
	f64  []float64
}

// newHTTPClient bounds the generator to n connections to the child.
func newHTTPClient(n int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

func coordList(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func regionURL(base, dataset string, lo, hi []int, bound float64) string {
	return fmt.Sprintf("%s/v1/datasets/%s/region?lo=%s&hi=%s&bound=%s", base, dataset,
		coordList(lo), coordList(hi), strconv.FormatFloat(bound, 'g', -1, 64))
}

// raw issues one format=raw region GET. ok is false when the request
// failed, was refused, or the oracle rejected the body; the round then
// carries no timing.
func (tg *target) raw(kind, dataset string, lo, hi []int, bound float64, sc *scratch) (round, bool) {
	r := round{kind: kind, start: time.Now()}
	resp, err := tg.hc.Get(regionURL(tg.base, dataset, lo, hi, bound))
	if err == nil {
		sc.body, err = readBody(resp, sc.body)
	}
	r.done = time.Now()
	if err == nil {
		err = tg.checkRaw(resp, lo, hi, bound, sc)
	}
	r.bytes = int64(len(sc.body))
	return r, tg.t.count(err)
}

// readBody reads the whole response into buf (reused when it is large
// enough) and closes it.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	defer resp.Body.Close()
	n := resp.ContentLength
	if n < 0 {
		return io.ReadAll(resp.Body)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(resp.Body, buf)
	return buf, err
}

// checkRaw decodes a raw response body at the dataset's width and hands
// it to the oracle with the fidelity its headers advertise.
func (tg *target) checkRaw(resp *http.Response, lo, hi []int, bound float64, sc *scratch) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("raw region [%v, %v) at %g: %s: %s", lo, hi, bound, resp.Status, strings.TrimSpace(string(sc.body)))
	}
	g, err := strconv.ParseFloat(resp.Header.Get("X-Ipcomp-Guaranteed-Error"), 64)
	if err != nil {
		return fmt.Errorf("raw region: X-Ipcomp-Guaranteed-Error %q: %v", resp.Header.Get("X-Ipcomp-Guaranteed-Error"), err)
	}
	a := advert{requested: tg.asked(bound), guaranteed: g, degraded: resp.Header.Get("X-Ipcomp-Degraded") == "true"}
	n := boxLen(lo, hi)
	if tg.f.f32 != nil {
		if len(sc.body) != 4*n || resp.Header.Get("X-Ipcomp-Scalar") != "float32" {
			return fmt.Errorf("raw region: %d body bytes as %s, want %d float32 values", len(sc.body), resp.Header.Get("X-Ipcomp-Scalar"), n)
		}
		if cap(sc.f32) < n {
			sc.f32 = make([]float32, n)
		}
		vals := sc.f32[:n]
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(sc.body[4*i:]))
		}
		return checkBox(tg.f, "raw region", lo, hi, vals, a)
	}
	if len(sc.body) != 8*n || resp.Header.Get("X-Ipcomp-Scalar") != "float64" {
		return fmt.Errorf("raw region: %d body bytes as %s, want %d float64 values", len(sc.body), resp.Header.Get("X-Ipcomp-Scalar"), n)
	}
	if cap(sc.f64) < n {
		sc.f64 = make([]float64, n)
	}
	vals := sc.f64[:n]
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(sc.body[8*i:]))
	}
	return checkBox(tg.f, "raw region", lo, hi, vals, a)
}

// checkRegion hands an ipcomp/client region, at whatever fidelity its
// refinements have brought it to, to the oracle.
func (tg *target) checkRegion(route string, reg *client.Region, lo, hi []int, bound float64) error {
	a := advert{requested: tg.asked(bound), guaranteed: reg.GuaranteedError()}
	if tg.f.f32 != nil {
		return checkBox(tg.f, route, lo, hi, reg.DataFloat32(), a)
	}
	return checkBox(tg.f, route, lo, hi, reg.Data(), a)
}

// region fetches a box over the planes protocol through ipcomp/client.
func (tg *target) region(kind, dataset string, lo, hi []int, bound float64) (*client.Region, round, bool) {
	r := round{kind: kind, start: time.Now()}
	reg, err := tg.cl.Region(context.Background(), dataset, lo, hi, bound)
	r.done = time.Now()
	if err == nil {
		err = tg.checkRegion("planes region", reg, lo, hi, bound)
		r.bytes = int64(boxLen(lo, hi) * tg.f.scalarBytes())
		r.wire = reg.FetchedBytes()
	}
	return reg, r, tg.t.count(err)
}

// refine tightens a region in place; the round's wire bytes are the
// delta this refinement fetched.
func (tg *target) refine(kind string, reg *client.Region, lo, hi []int, bound float64) (round, bool) {
	had := reg.FetchedBytes()
	r := round{kind: kind, start: time.Now()}
	err := reg.Refine(context.Background(), bound)
	r.done = time.Now()
	if err == nil {
		err = tg.checkRegion("refined region", reg, lo, hi, bound)
		r.bytes = int64(boxLen(lo, hi) * tg.f.scalarBytes())
		r.wire = reg.FetchedBytes() - had
	}
	return r, tg.t.count(err)
}
