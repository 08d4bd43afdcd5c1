package main

import "repro/internal/grid"

// The names, units and order here mirror BENCHMARK.json at the repository
// root; TestMetricNamesMatchManifest fails when they drift apart. Bounds
// and directions live only in BENCHMARK.json (-compare reads them there).

type metricSpec struct {
	name, unit string
}

// endToEnd is what --trace 0 reports. The driver's contract has every run
// print every end-to-end metric, so each workload reports all of them;
// native says which of them the workload exists to measure.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"compress_mbps", "MB/s"},
	{"retrieve_mbps", "MB/s"},
	{"refine_mbps", "MB/s"},
	{"ratio", "x"},
	{"loaded_frac", "fraction"},
	{"capacity_rps", "1/s"},
	{"goodput_mbps", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"read_after_write_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// native lists, per workload, the end-to-end metrics the issue's table
// marks for it: the pairs -compare gates. On the other pairs a workload
// carries the nearest quantity it measures anyway (README.md, "Carried
// values"), which -compare leaves alone.
var native = map[string][]string{
	"codec_field":       {"setup_s", "compress_mbps", "retrieve_mbps", "refine_mbps", "ratio", "loaded_frac", "peak_rss_mb"},
	"serve_cold_roi":    {"setup_s", "capacity_rps", "goodput_mbps", "latency_p50_ms", "peak_rss_mb"},
	"serve_warm_refine": {"setup_s", "loaded_frac", "capacity_rps", "goodput_mbps", "latency_p50_ms", "peak_rss_mb"},
	"ingest_series":     {"setup_s", "compress_mbps", "ratio", "latency_p50_ms", "read_after_write_ms", "peak_rss_mb"},
}

// countMetrics are counts, not timings: they repeat exactly for one seed
// and move about 1 % from seed to seed with the crop. BENCHMARK.json has
// to bound them for runs with different seeds; between runs of the same
// seeds -compare holds them to countBound.
var countMetrics = map[string]bool{"ratio": true, "loaded_frac": true}

const countBound = 0.005

// perLayer is what --trace 1 reports. A layer a workload does not enter
// reports 0 there — which is itself the claim the workload makes (for
// instance every store.*, server.* and cas.* metric of codec_field).
var perLayer = []metricSpec{
	{"core.compress_ms", "ms"},
	{"core.retrieve_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.plan_us", "us"},
	{"interp.visit_ns_per_value", "ns"},
	{"bitplane.split_ns_per_value", "ns"},
	{"bitplane.merge_ns_per_value", "ns"},
	{"bitplane.predict_ns_per_byte", "ns"},
	{"codec.encode_mbps", "MB/s"},
	{"codec.decode_mbps", "MB/s"},
	{"codec.decode_ms_per_req", "ms"},
	{"codec.deflate_byte_share", "fraction"},
	{"store.pack_mbps", "MB/s"},
	{"store.region_ms", "ms"},
	{"store.warm_sweep_us", "us"},
	{"store.tile_decode_ms", "ms"},
	{"store.copy_self_ms", "ms"},
	{"store.plan_region_us", "us"},
	{"store.tile_hit_ratio", "fraction"},
	{"store.tiles_per_req", "count"},
	{"backend.read_ms_per_req", "ms"},
	{"backend.bytes_per_req", "bytes"},
	{"backend.reads_per_req", "count"},
	{"backend.file_read_us", "us"},
	{"cas.hash_mbps", "MB/s"},
	{"cas.put_ms", "ms"},
	{"cas.seal_ms", "ms"},
	{"cas.dedup_ratio", "fraction"},
	{"cas.read_verify_ms", "ms"},
	{"cas.open_snapshot_ms", "ms"},
	{"cas.recover_ms", "ms"},
	{"wire.frame_overhead_frac", "fraction"},
	{"server.request_ms", "ms"},
	{"server.handler_self_ms", "ms"},
	{"server.relay_ms", "ms"},
	{"server.admission_wait_ms", "ms"},
	{"server.queued_share", "fraction"},
	{"server.degraded_share", "fraction"},
	{"server.rejected_share", "fraction"},
	{"server.allocs_per_req", "count"},
	{"server.alloc_kb_per_req", "KB"},
	{"server.ingest_compress_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"client.reassemble_ms", "ms"},
	{"client.refine_ms", "ms"},
	{"client.fetched_bytes_per_op", "bytes"},
	{"obs.trace_overhead_frac", "fraction"},
	{"obs.stage_coverage", "fraction"},
	{"latency_p99_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.datagen_s", "s"},
	{"gen.build_s", "s"},
	{"budget.remainder_frac", "fraction"},
}

var workloadNames = []string{"codec_field", "serve_cold_roi", "serve_warm_refine", "ingest_series"}

// runSeconds is the length one run is calibrated for, mirrored by
// run_seconds in BENCHMARK.json. The driver passes it as --seconds; any
// other value is refused, so that no two result files can differ in it.
// Only the tests, which call runWorkload themselves, run shorter.
const runSeconds = 30

// sizes holds every shape, count and rate of the four workloads. They are
// constants of the benchmark — never calibrated at run time, so a faster
// program is not handed a higher load. Counts and phase lengths are
// stated per second of run length. README.md records how the full-size
// values were calibrated on the seed commit.
type sizes struct {
	// codec_field
	codecShapes   [3]grid.Shape // Density f32, Wave f64, CH4 f32
	codecCyclesPS float64       // field cycles per second of run length

	// serve workloads
	tile        int
	box         int // ROI edge
	lattice     int // ROI origin pitch
	coldShape   grid.Shape
	coldCacheMB int
	coldRate    float64 // phase B arrivals per second (operations, not rounds)
	warmShape   grid.Shape
	warmCacheMB int
	warmRate    float64
	phaseAShare float64 // of the run length; phase B takes the rest

	// ingest_series
	ingestShape     grid.Shape
	ingestSnapsPS   float64 // snapshots per second of run length
	ingestChurn     float64 // share of tiles perturbed per snapshot
	ingestSealEvery int

	// traced run
	replayOps int // in-process operations replayed with spans
	setupReps int // set-ups per measured run; setup_s is their median
}

// fullSizes is what runSeconds is calibrated for.
var fullSizes = sizes{
	codecShapes:   [3]grid.Shape{{128, 128, 128}, {126, 126, 88}, {100, 100, 100}},
	codecCyclesPS: 1.2,

	tile:        32,
	box:         48,
	lattice:     8,
	coldShape:   grid.Shape{192, 192, 192},
	coldCacheMB: 4,
	coldRate:    70,
	warmShape:   grid.Shape{96, 96, 96},
	warmCacheMB: 256,
	warmRate:    60,
	phaseAShare: 0.5,

	ingestShape:     grid.Shape{128, 128, 128},
	ingestSnapsPS:   5,
	ingestChurn:     0.25,
	ingestSealEvery: 4,

	replayOps: 200,
	setupReps: 9,
}

// smallSizes keeps every code path but shrinks the arrays so that
// benchmark_test.go can run each workload in about a second.
var smallSizes = sizes{
	codecShapes:   [3]grid.Shape{{32, 32, 32}, {30, 30, 22}, {28, 28, 28}},
	codecCyclesPS: 3,

	tile:        16,
	box:         24,
	lattice:     8,
	coldShape:   grid.Shape{48, 48, 48},
	coldCacheMB: 1,
	coldRate:    100,
	warmShape:   grid.Shape{32, 32, 32},
	warmCacheMB: 64,
	warmRate:    100,
	phaseAShare: 0.5,

	ingestShape:     grid.Shape{32, 32, 32},
	ingestSnapsPS:   8,
	ingestChurn:     0.25,
	ingestSealEvery: 4,

	replayOps: 20,
	setupReps: 2,
}

// Error bounds, relative to each field's value range: 1e-6 for float64
// fields and 1e-5 for float32 ones, whose representational precision
// (~1e-7 relative) the tighter bound would crowd.
const (
	relEB64 = 1e-6
	relEB32 = 1e-5
)

// Tail latencies are taken at these percentiles: no frozen run length
// gives a workload the ≥1000 samples a p99 needs with ten samples beyond
// it, so each workload's tail is the highest percentile its sample count
// always supports, fixed so that a few samples more or fewer cannot move
// it from one percentile to another. The serving workloads' p95 is the
// issue's latency_p99_ms under its fallback rule ("p95 under the same
// name"); it did not repeat within any bound the contract allows
// (README.md, "Noise"), so by the same rule it sits in the per-layer list.
const (
	codecTailPct  = 75 // ≥100 field cycles
	serveTailPct  = 95 // ≥800 rounds in phase B
	ingestTailPct = 90 // 150 POSTs
)

// latencyBound mirrors the regression bound BENCHMARK.json puts on the
// latency metric; generator lateness (p99) beyond that share of the tail
// latency invalidates a run's latency figures.
const latencyBound = 0.25

// boundLadder is the set of retrieval bounds, as multiples of the
// dataset's absolute error bound, that the serving workloads draw from.
var boundLadder = []float64{4, 16, 64, 256}
