package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The serving workloads measure ipcompd from outside: it is built from
// the checkout's source, run as a child process with default GOMAXPROCS,
// driven over loopback HTTP, and observed only through what it already
// exports — /metrics, /v1/stats, the -debug-addr expvar page, and its
// entry in /proc.

// buildServer compiles ./cmd/ipcompd into buildDir once per run. go
// build leaves an up-to-date binary alone, so later runs in the same
// checkout pay a fraction of a second. The time is reported as
// gen.build_s and kept out of setup_s.
func (ctx *runCtx) buildServer() (string, error) {
	if ctx.bin != "" {
		return ctx.bin, nil
	}
	bin := filepath.Join(mkBuildDir(ctx.root), "bin", "ipcompd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ipcompd")
	cmd.Dir = ctx.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ipcompd: %v\n%s", err, out)
	}
	ctx.buildS = time.Since(start).Seconds()
	ctx.bin = bin
	return bin, nil
}

// child is one running ipcompd.
type child struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	debug string // http://127.0.0.1:port of -debug-addr, or ""
	log   bytes.Buffer
	ready time.Duration // start → /readyz 200
	hc    *http.Client
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the box races for
// loopback ports during a run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches ipcompd with the given arguments plus -listen (and
// -debug-addr when debug is set) and waits for /readyz.
func startChild(bin string, debug bool, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	full := []string{"-listen", fmt.Sprintf("127.0.0.1:%d", port)}
	if debug {
		dport, err := freePort()
		if err != nil {
			return nil, err
		}
		c.debug = fmt.Sprintf("http://127.0.0.1:%d", dport)
		full = append(full, "-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport))
	}
	full = append(full, args...)
	c.cmd = exec.Command(bin, full...)
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	// Best effort against leaking a server when the benchmark itself is
	// killed; the normal path is kill() below.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := c.hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.ready = time.Since(start)
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("ipcompd %v not ready after 30s: %v\n%s", full, err, c.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the child with SIGKILL and waits for it to be gone. The
// read-only children hold nothing worth a graceful shutdown; for the
// writable one the kill is the point (the durability check).
func (c *child) kill() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGKILL)
	c.cmd.Wait()
}

// peakRSSMB reads VmHWM — the peak resident set — of a process from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (c *child) peakRSSMB() float64 { return peakRSSMB(c.cmd.Process.Pid) }

// scrape is one reading of everything the child exports. Series are
// keyed exactly as /metrics prints them (name plus label set).
type scrape struct {
	series  map[string]float64
	mallocs float64 // expvar memstats, 0 without -debug-addr
	allocKB float64
}

func (c *child) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return raw, nil
}

func (c *child) scrape() (*scrape, error) {
	raw, err := c.get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	s := &scrape{series: parseMetrics(string(raw))}
	if c.debug != "" {
		raw, err := c.get(c.debug + "/debug/vars")
		if err != nil {
			return nil, err
		}
		var vars struct {
			Memstats struct {
				Mallocs    float64
				TotalAlloc float64
			} `json:"memstats"`
		}
		if err := json.Unmarshal(raw, &vars); err != nil {
			return nil, fmt.Errorf("decoding /debug/vars: %w", err)
		}
		s.mallocs, s.allocKB = vars.Memstats.Mallocs, vars.Memstats.TotalAlloc/1024
	}
	return s, nil
}

// parseMetrics reads the Prometheus text exposition into series → value.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta sums, over every series whose key starts with prefix and contains
// all of the given label fragments, the increase from before to after.
func delta(before, after *scrape, prefix string, labels ...string) float64 {
	total := 0.0
series:
	for k, v := range after.series {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		// "name" must not match "name_total_more": the key continues with
		// a label set or ends.
		if rest := k[len(prefix):]; rest != "" && rest[0] != '{' {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue series
			}
		}
		total += v - before.series[k]
	}
	return total
}

// reportChild sets the per-layer metrics that are plain differences of
// what a traced child exported before and after a phase. reqs is every
// request the phase made, gets its region GETs, raws those of them that
// went through the store's decode path (format=raw).
func reportChild(res *result, before, after *scrape, reqs, gets, raws float64) {
	stage := func(name string) float64 {
		return delta(before, after, "ipcomp_stage_seconds_sum", `stage="`+name+`"`)
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	res.set("server.relay_ms", per(stage("relay"), gets)*1e3)
	res.set("server.admission_wait_ms", per(stage("admission"), reqs)*1e3)
	res.set("server.queued_share", per(delta(before, after, "ipcomp_admission_queued_total"), reqs))
	res.set("server.degraded_share", per(delta(before, after, "ipcomp_admission_degraded_total"), reqs))
	res.set("server.rejected_share", per(delta(before, after, "ipcomp_admission_rejected_total"), reqs))
	res.set("server.allocs_per_req", per(after.mallocs-before.mallocs, reqs))
	res.set("server.alloc_kb_per_req", per(after.allocKB-before.allocKB, reqs))
	res.set("store.warm_sweep_us", per(stage("warm_sweep"), raws)*1e6)
	res.set("store.tile_decode_ms", per(stage("tile_decode"), raws)*1e3)
	hits := delta(before, after, "ipcomp_tile_hits_total")
	touched := hits + delta(before, after, "ipcomp_tile_decodes_total") + delta(before, after, "ipcomp_tile_refines_total")
	res.set("store.tile_hit_ratio", per(hits, touched))
	res.set("store.tiles_per_req", per(touched, raws))
	res.set("codec.decode_ms_per_req", per(stage("entropy_decode"), gets)*1e3)
	res.set("backend.read_ms_per_req", per(stage("backend_fetch"), gets)*1e3)
}
