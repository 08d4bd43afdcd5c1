package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/ipcomp"
)

// cmdStore dispatches the chunked-container subcommands:
//
//	ipcomp store pack    -out c.ipcs [-eb 1e-6] [-rel] [-chunk 64x64x64] [-interp cubic] [-dtype f32] name=file:shape[:dtype] ...
//	ipcomp store ls      -in c.ipcs
//	ipcomp store extract -in c.ipcs -dataset name [-bound 1e-3] -out out.f64
//	ipcomp store region  -in c.ipcs -dataset name -lo 0,0,0 -hi 64,64,64 [-bound 1e-3] [-out out.f64]
//
// Wherever a subcommand reads a container (-in), a URL works too: ls,
// extract, and region accept file:// paths, http(s):// URLs of an ipcompd
// origin (its root, or /v1/containers/<name>), and files on Range-capable
// static servers — remote reads go through a span cache, so the
// bytes-loaded figures stay faithful partial-I/O measurements (see
// docs/BACKENDS.md).
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("store requires a subcommand: pack, ls, extract, region")
	}
	switch args[0] {
	case "pack":
		return cmdStorePack(args[1:])
	case "ls":
		return cmdStoreLs(args[1:])
	case "extract":
		return cmdStoreExtract(args[1:])
	case "region":
		return cmdStoreRegion(args[1:])
	default:
		return fmt.Errorf("unknown store subcommand %q (want pack, ls, extract, region)", args[0])
	}
}

// openContainer opens a container from a local path or URL, the single
// open path of every reading store subcommand. Errors are user-facing:
// a missing file reports "no such container", an undersized or garbage
// file reports what a well-formed container requires, and remote specs
// carry the URL context — never a bare OS error string.
func openContainer(spec string) (*ipcomp.Store, error) {
	return ipcomp.OpenURL(spec)
}

// parsePoint parses a comma-separated coordinate such as "0,32,64".
func parsePoint(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad coordinate %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdStorePack(args []string) error {
	fs := flag.NewFlagSet("store pack", flag.ExitOnError)
	out := fs.String("out", "", "output container file")
	eb := fs.Float64("eb", 1e-6, "error bound applied to every dataset")
	rel := fs.Bool("rel", false, "interpret -eb relative to each dataset's value range")
	chunkStr := fs.String("chunk", "", "tile shape, e.g. 64x64x64 (default 64 per dimension)")
	interpName := fs.String("interp", "cubic", "interpolation: linear|cubic")
	dtypeStr := fs.String("dtype", "f64", "input element type of every file: f32|f64")
	fs.Parse(args)
	specs := fs.Args()
	if *out == "" || len(specs) == 0 {
		return fmt.Errorf("store pack requires -out and at least one name=file:shape argument")
	}
	var chunk []int
	if *chunkStr != "" {
		var err error
		if chunk, err = grid.ParseShape(*chunkStr); err != nil {
			return err
		}
	}
	kind, err := parseInterp(*interpName)
	if err != nil {
		return err
	}
	dtype, err := parseDtype(*dtypeStr, ipcomp.Float64)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sw, err := ipcomp.NewStoreWriter(f)
	if err != nil {
		return err
	}
	var raw int64
	for _, spec := range specs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad dataset spec %q (want name=file:shape[:dtype])", spec)
		}
		path, shapeStr, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("bad dataset spec %q (want name=file:shape[:dtype])", spec)
		}
		// An optional per-spec dtype suffix (name=file:shape:f32) overrides
		// the container-wide -dtype flag, so one pack invocation can build
		// the mixed-width containers the v2 index supports.
		dtype := dtype
		if shapePart, dtypePart, has := strings.Cut(shapeStr, ":"); has {
			if dtypePart == "" {
				return fmt.Errorf("bad dataset spec %q (want name=file:shape[:dtype])", spec)
			}
			shapeStr = shapePart
			if dtype, err = parseDtype(dtypePart, 0); err != nil {
				return fmt.Errorf("bad dataset spec %q: %w", spec, err)
			}
		}
		shape, err := grid.ParseShape(shapeStr)
		if err != nil {
			return err
		}
		opt := ipcomp.StoreOptions{
			ErrorBound:    *eb,
			Relative:      *rel,
			Interpolation: kind,
			ChunkShape:    chunk,
		}
		var n int
		if dtype == ipcomp.Float32 {
			data, err := readFloats[float32](path)
			if err != nil {
				return err
			}
			if err := sw.AddFloat32(name, data, shape, opt); err != nil {
				return err
			}
			n = len(data)
		} else {
			data, err := readFloats[float64](path)
			if err != nil {
				return err
			}
			if err := sw.Add(name, data, shape, opt); err != nil {
				return err
			}
			n = len(data)
		}
		raw += int64(n * dtype.Bytes())
		fmt.Printf("packed %s: %d %s values from %s\n", name, n, dtype, path)
	}
	if err := sw.Close(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("container %s: %d datasets, %d bytes (CR %.2f)\n",
		*out, len(specs), st.Size(), float64(raw)/float64(st.Size()))
	return nil
}

func cmdStoreLs(args []string) error {
	fs := flag.NewFlagSet("store ls", flag.ExitOnError)
	in := fs.String("in", "", "container file or URL")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("store ls requires -in")
	}
	s, err := openContainer(*in)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Printf("%-20s %-16s %-12s %-8s %8s %10s %12s\n",
		"DATASET", "SHAPE", "CHUNK", "DTYPE", "CHUNKS", "EB", "BYTES")
	for _, ds := range s.Datasets() {
		fmt.Printf("%-20s %-16s %-12s %-8s %8d %10.3g %12d\n",
			ds.Name, grid.Shape(ds.Shape), grid.Shape(ds.ChunkShape),
			ds.Scalar, ds.NumChunks, ds.ErrorBound, ds.CompressedBytes)
	}
	fmt.Printf("container: %d bytes total\n", s.Size())
	return nil
}

// writeRegion writes a region's values at the requested width, defaulting
// to the dataset's native element type.
func writeRegion(path string, reg *ipcomp.Region, dtypeStr string) error {
	dtype, err := parseDtype(dtypeStr, reg.Scalar())
	if err != nil {
		return err
	}
	return writeAtWidth(path, reg, dtype)
}

func cmdStoreExtract(args []string) error {
	fs := flag.NewFlagSet("store extract", flag.ExitOnError)
	in := fs.String("in", "", "container file or URL")
	name := fs.String("dataset", "", "dataset name")
	bound := fs.Float64("bound", 0, "L-inf error bound (0 = full fidelity)")
	out := fs.String("out", "", "output raw float file")
	dtypeStr := fs.String("dtype", "", "output element type: f32|f64 (default: the dataset's)")
	fs.Parse(args)
	if *in == "" || *name == "" || *out == "" {
		return fmt.Errorf("store extract requires -in, -dataset, -out")
	}
	// Validate the flag before the (potentially expensive) retrieval; the
	// dataset's native width resolves the empty default later.
	if _, err := parseDtype(*dtypeStr, ipcomp.Float64); err != nil {
		return err
	}
	s, err := openContainer(*in)
	if err != nil {
		return err
	}
	defer s.Close()
	reg, err := s.RetrieveDataset(*name, *bound)
	if err != nil {
		return err
	}
	if err := writeRegion(*out, reg, *dtypeStr); err != nil {
		return err
	}
	fmt.Printf("extracted %s (shape %s): %d chunks, loaded %d of %d bytes (%.1f%%), guaranteed error %.3g\n",
		*name, grid.Shape(reg.Shape()), reg.Chunks(), reg.LoadedBytes(), s.Size(),
		100*float64(reg.LoadedBytes())/float64(s.Size()), reg.GuaranteedError())
	return nil
}

func cmdStoreRegion(args []string) error {
	fs := flag.NewFlagSet("store region", flag.ExitOnError)
	in := fs.String("in", "", "container file or URL")
	name := fs.String("dataset", "", "dataset name")
	loStr := fs.String("lo", "", "region origin, e.g. 0,32,0 (inclusive)")
	hiStr := fs.String("hi", "", "region end, e.g. 64,64,32 (exclusive)")
	bound := fs.Float64("bound", 0, "L-inf error bound (0 = full fidelity)")
	out := fs.String("out", "", "output raw float file (optional: stats print regardless)")
	dtypeStr := fs.String("dtype", "", "output element type: f32|f64 (default: the dataset's)")
	fs.Parse(args)
	if *in == "" || *name == "" || *loStr == "" || *hiStr == "" {
		return fmt.Errorf("store region requires -in, -dataset, -lo, -hi")
	}
	// Validate the flag before the (potentially expensive) retrieval; the
	// dataset's native width resolves the empty default later.
	if _, err := parseDtype(*dtypeStr, ipcomp.Float64); err != nil {
		return err
	}
	lo, err := parsePoint(*loStr)
	if err != nil {
		return err
	}
	hi, err := parsePoint(*hiStr)
	if err != nil {
		return err
	}
	s, err := openContainer(*in)
	if err != nil {
		return err
	}
	defer s.Close()
	reg, err := s.RetrieveRegion(*name, lo, hi, *bound)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeRegion(*out, reg, *dtypeStr); err != nil {
			return err
		}
	}
	fmt.Printf("region %s[%s..%s) (shape %s): %d chunks, loaded %d of %d bytes (%.2f%%), guaranteed error %.3g\n",
		*name, *loStr, *hiStr, grid.Shape(reg.Shape()), reg.Chunks(),
		reg.LoadedBytes(), s.Size(),
		100*float64(reg.LoadedBytes())/float64(s.Size()), reg.GuaranteedError())
	return nil
}
