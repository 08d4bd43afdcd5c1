// Command ipcomp compresses, decompresses, and progressively retrieves
// raw little-endian float32/float64 arrays with the IPComp algorithm.
//
// Usage:
//
//	ipcomp compress   -in data.f64 -shape 256x384x384 -eb 1e-6 [-rel] [-interp cubic] [-dtype f32] -out data.ipc
//	ipcomp decompress -in data.ipc -out recon.f64 [-dtype f32]
//	ipcomp retrieve   -in data.ipc (-bound 1e-3 | -bitrate 2.0) -out recon.f64 [-dtype f32]
//	ipcomp info       -in data.ipc
//	ipcomp gen        -dataset Density -divisor 4 [-dtype f32] -out density.f64   (synthetic data)
//
// The -dtype flag selects the raw file's element width: f32 files compress
// natively into version-2 archives (no offline widening), and readers
// default to the archive's own scalar type.
//
// Chunked multi-dataset containers (region-of-interest retrieval):
//
//	ipcomp store pack    -out c.ipcs -eb 1e-6 -rel [-dtype f32] density=density.f32:64x96x96 ...
//	ipcomp store ls      -in c.ipcs
//	ipcomp store extract -in c.ipcs -dataset density -bound 1e-3 -out recon.f64 [-dtype f32]
//	ipcomp store region  -in c.ipcs -dataset density -lo 0,0,0 -hi 32,32,32 -out roi.f64 [-dtype f32]
//
// Content-addressed snapshot series (deduplicated time steps, see
// docs/INGEST.md):
//
//	ipcomp snapshot put -cas store/ -field density -shape 64x96x96 -eb 1e-6 t0.f64
//	ipcomp snapshot put -cas store/ -field density t1.f64
//	ipcomp snapshot ls  -cas store/
//	ipcomp snapshot rm  -cas store/ -name density@t0
//	ipcomp snapshot gc  -cas store/
//
// retrieve opens the archive through io.ReaderAt and reads only the byte
// ranges its loading plan selects, so the bytes-read figure it prints is a
// faithful partial-I/O measurement.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/ipcomp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "retrieve":
		err = cmdRetrieve(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipcomp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ipcomp <compress|decompress|retrieve|info|gen|store|snapshot> [flags]
store subcommands: pack, ls, extract, region
snapshot subcommands: put, ls, rm, gc
run "ipcomp <subcommand> -h" for flags`)
}

func parseInterp(name string) (ipcomp.Interpolation, error) {
	switch name {
	case "linear":
		return ipcomp.Linear, nil
	case "cubic":
		return ipcomp.Cubic, nil
	default:
		return 0, fmt.Errorf("unknown interpolation %q (want linear or cubic)", name)
	}
}

func parseShape(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	shape := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad shape %q", s)
		}
		shape = append(shape, v)
	}
	return shape, nil
}

// parseDtype maps a -dtype flag value to a scalar type; the empty string
// selects def (the input default for writers, the archive's native type
// for readers).
func parseDtype(s string, def ipcomp.ScalarType) (ipcomp.ScalarType, error) {
	switch s {
	case "":
		return def, nil
	case "f32", "float32":
		return ipcomp.Float32, nil
	case "f64", "float64":
		return ipcomp.Float64, nil
	default:
		return 0, fmt.Errorf("unknown dtype %q (want f32 or f64)", s)
	}
}

// readRaw loads a raw little-endian array file, rejecting — never silently
// truncating — inputs whose size is not a whole number of elements.
func readRaw(path string, width int) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rem := len(raw) % width; rem != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of the %d-byte element width (%d trailing bytes)",
			path, len(raw), width, rem)
	}
	return raw, nil
}

func readFloats(path string) ([]float64, error) {
	raw, err := readRaw(path, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func readFloats32(path string) ([]float32, error) {
	raw, err := readRaw(path, 4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

func writeFloats(path string, data []float64) error {
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

func writeFloats32(path string, data []float32) error {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

// floatSource is the accessor pair shared by *ipcomp.Result and
// *ipcomp.Region: reconstructed values at either width.
type floatSource interface {
	Data() []float64
	DataFloat32() []float32
}

// writeAtWidth writes a reconstruction as raw little-endian floats of the
// requested element width — the single output path of every read command.
func writeAtWidth(path string, src floatSource, dtype ipcomp.ScalarType) error {
	if dtype == ipcomp.Float32 {
		return writeFloats32(path, src.DataFloat32())
	}
	return writeFloats(path, src.Data())
}

// rawFloats adapts a bare float64 slice (gen's synthetic output) to the
// floatSource shape.
type rawFloats []float64

func (r rawFloats) Data() []float64        { return r }
func (r rawFloats) DataFloat32() []float32 { return grid.NarrowSlice([]float64(r)) }

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input raw float file (element width set by -dtype)")
	out := fs.String("out", "", "output archive")
	shapeStr := fs.String("shape", "", "dimensions, e.g. 256x384x384")
	eb := fs.Float64("eb", 1e-6, "error bound")
	rel := fs.Bool("rel", false, "interpret -eb relative to the value range")
	interpName := fs.String("interp", "cubic", "interpolation: linear|cubic")
	dtypeStr := fs.String("dtype", "f64", "input element type: f32|f64")
	fs.Parse(args)
	if *in == "" || *out == "" || *shapeStr == "" {
		return fmt.Errorf("compress requires -in, -out, -shape")
	}
	shape, err := parseShape(*shapeStr)
	if err != nil {
		return err
	}
	dtype, err := parseDtype(*dtypeStr, ipcomp.Float64)
	if err != nil {
		return err
	}
	kind, err := parseInterp(*interpName)
	if err != nil {
		return err
	}
	opt := ipcomp.Options{ErrorBound: *eb, Relative: *rel, Interpolation: kind}
	var blob []byte
	var n, rawBytes int
	if dtype == ipcomp.Float32 {
		data, err := readFloats32(*in)
		if err != nil {
			return err
		}
		n, rawBytes = len(data), len(data)*4
		blob, err = ipcomp.CompressFloat32(data, shape, opt)
		if err != nil {
			return err
		}
	} else {
		data, err := readFloats(*in)
		if err != nil {
			return err
		}
		n, rawBytes = len(data), len(data)*8
		blob, err = ipcomp.Compress(data, shape, opt)
		if err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("compressed %d %s values -> %d bytes (CR %.2f, %.3f bits/value)\n",
		n, dtype, len(blob), float64(rawBytes)/float64(len(blob)),
		float64(len(blob))*8/float64(n))
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	out := fs.String("out", "", "output raw float file")
	dtypeStr := fs.String("dtype", "", "output element type: f32|f64 (default: the archive's)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress requires -in and -out")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	arch, err := ipcomp.Open(blob)
	if err != nil {
		return err
	}
	dtype, err := parseDtype(*dtypeStr, arch.Scalar())
	if err != nil {
		return err
	}
	res, err := arch.RetrieveAll()
	if err != nil {
		return err
	}
	if err := writeAtWidth(*out, res, dtype); err != nil {
		return err
	}
	fmt.Printf("decompressed %d %s values (shape %v) at full fidelity\n",
		arch.NumElements(), dtype, arch.Shape())
	return nil
}

func cmdRetrieve(args []string) error {
	fs := flag.NewFlagSet("retrieve", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	out := fs.String("out", "", "output raw float file")
	bound := fs.Float64("bound", 0, "error-bound mode: absolute L-inf bound")
	bitrate := fs.Float64("bitrate", 0, "fixed-rate mode: bits per value to load")
	dtypeStr := fs.String("dtype", "", "output element type: f32|f64 (default: the archive's)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("retrieve requires -in and -out")
	}
	if (*bound == 0) == (*bitrate == 0) {
		return fmt.Errorf("retrieve requires exactly one of -bound or -bitrate")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	arch, err := ipcomp.OpenReaderAt(f, st.Size())
	if err != nil {
		return err
	}
	dtype, err := parseDtype(*dtypeStr, arch.Scalar())
	if err != nil {
		return err
	}
	var res *ipcomp.Result
	if *bound > 0 {
		res, err = arch.RetrieveErrorBound(*bound)
	} else {
		res, err = arch.RetrieveBitrate(*bitrate)
	}
	if err != nil {
		return err
	}
	if err := writeAtWidth(*out, res, dtype); err != nil {
		return err
	}
	fmt.Printf("retrieved %d values: loaded %d of %d bytes (%.1f%%), %.3f bits/value, guaranteed error %.3g\n",
		arch.NumElements(), res.LoadedBytes(), arch.CompressedSize(),
		100*float64(res.LoadedBytes())/float64(arch.CompressedSize()),
		res.Bitrate(), res.GuaranteedError())
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info requires -in")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	arch, err := ipcomp.Open(blob)
	if err != nil {
		return err
	}
	n := arch.NumElements()
	elem := arch.Scalar().Bytes()
	fmt.Printf("shape:        %v (%d values)\n", arch.Shape(), n)
	fmt.Printf("dtype:        %s (format v%d)\n", arch.Scalar(), arch.FormatVersion())
	fmt.Printf("error bound:  %g\n", arch.ErrorBound())
	fmt.Printf("size:         %d bytes (CR %.2f, %.3f bits/value)\n",
		arch.CompressedSize(), float64(n*elem)/float64(arch.CompressedSize()),
		float64(arch.CompressedSize())*8/float64(n))
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "Density", fmt.Sprintf("one of %v", datagen.Names()))
	divisor := fs.Int("divisor", 4, "linear downscale factor vs. the paper's shapes")
	out := fs.String("out", "", "output raw float file")
	dtypeStr := fs.String("dtype", "f64", "output element type: f32|f64")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen requires -out")
	}
	dtype, err := parseDtype(*dtypeStr, ipcomp.Float64)
	if err != nil {
		return err
	}
	ds, err := datagen.Generate(*name, *divisor)
	if err != nil {
		return err
	}
	if err := writeAtWidth(*out, rawFloats(ds.Grid.Data()), dtype); err != nil {
		return err
	}
	fmt.Printf("generated %s (%s domain, %s): shape %v, range [%g]\n",
		ds.Name, ds.Domain, dtype, ds.Grid.Shape(), ds.Grid.ValueRange())
	fmt.Printf("compress with: ipcomp compress -in %s -shape %s -dtype %s -eb 1e-6 -rel -out %s.ipc\n",
		*out, ds.Grid.Shape(), dtype, *out)
	return nil
}
