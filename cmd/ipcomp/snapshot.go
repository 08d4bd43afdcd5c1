package main

import (
	"flag"
	"fmt"

	"repro/internal/cas"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/store"
)

// cmdSnapshot dispatches the content-addressed snapshot-store
// subcommands (see docs/INGEST.md):
//
//	ipcomp snapshot put -cas DIR -field name [-shape 64x96x96] [-eb 1e-6] [-rel] [-chunk 64x64x64] [-interp cubic] [-dtype f32] file
//	ipcomp snapshot ls  -cas DIR
//	ipcomp snapshot rm  -cas DIR -name field@tN
//	ipcomp snapshot gc  -cas DIR
//
// put appends the file as the field's next time step: the first put of a
// field fixes the series geometry (-shape and -eb required), later puts
// inherit it and only need the file. Tiles identical to any earlier
// snapshot are stored once — put reports how many blobs were new. Every
// put seals before returning, so a finished put is durable.
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot requires a subcommand: put, ls, rm, gc")
	}
	switch args[0] {
	case "put":
		return cmdSnapshotPut(args[1:])
	case "ls":
		return cmdSnapshotLs(args[1:])
	case "rm":
		return cmdSnapshotRm(args[1:])
	case "gc":
		return cmdSnapshotGc(args[1:])
	default:
		return fmt.Errorf("unknown snapshot subcommand %q (want put, ls, rm, gc)", args[0])
	}
}

func cmdSnapshotPut(args []string) error {
	fs := flag.NewFlagSet("snapshot put", flag.ExitOnError)
	dir := fs.String("cas", "", "snapshot store directory (created if missing)")
	field := fs.String("field", "", "field name the snapshot extends")
	shapeStr := fs.String("shape", "", "dimensions, e.g. 64x96x96 (required on a field's first put)")
	eb := fs.Float64("eb", 0, "error bound (required on a field's first put)")
	rel := fs.Bool("rel", false, "interpret -eb relative to the value range")
	chunkStr := fs.String("chunk", "", "tile shape, e.g. 64x64x64 (default 64 per dimension)")
	interpName := fs.String("interp", "cubic", "interpolation: linear|cubic")
	dtypeStr := fs.String("dtype", "", "input element type: f32|f64 (default: the series dtype, f64 on first put)")
	fs.Parse(args)
	if *dir == "" || *field == "" || fs.NArg() != 1 {
		return fmt.Errorf("snapshot put requires -cas, -field, and exactly one raw float file")
	}
	c, err := cas.Open(*dir)
	if err != nil {
		return err
	}
	var kind interp.Kind
	switch *interpName {
	case "linear":
		kind = interp.Linear
	case "cubic":
		kind = interp.Cubic
	default:
		return fmt.Errorf("unknown interpolation %q (want linear or cubic)", *interpName)
	}

	// The series' previous manifest supplies every omitted parameter; an
	// explicit flag that disagrees with it is an error, not a new series.
	var shape, chunk []int
	var scalar scalarFlag = scalarF64
	var prev *cas.Manifest
	if t, ok := c.Latest(*field); ok {
		if prev, _ = c.Manifest(*field, t); prev == nil {
			return fmt.Errorf("field %q has no manifest at t%d", *field, t)
		}
		shape, chunk = prev.Shape, prev.Chunk
		if *shapeStr != "" {
			s, err := parseShape(*shapeStr)
			if err != nil {
				return err
			}
			if !grid.Shape(s).Equal(prev.Shape) {
				return fmt.Errorf("-shape %v does not match the series shape %v", s, prev.Shape)
			}
		}
		if *chunkStr != "" {
			s, err := parseShape(*chunkStr)
			if err != nil {
				return err
			}
			if !grid.Shape(s).Equal(prev.Chunk) {
				return fmt.Errorf("-chunk %v does not match the series tiling %v", s, prev.Chunk)
			}
		}
		scalar = scalarFlag(prev.Scalar)
	} else {
		if *shapeStr == "" || *eb == 0 {
			return fmt.Errorf("the first put of field %q requires -shape and -eb", *field)
		}
		if shape, err = parseShape(*shapeStr); err != nil {
			return err
		}
		if *chunkStr != "" {
			if chunk, err = parseShape(*chunkStr); err != nil {
				return err
			}
		}
	}
	if *dtypeStr != "" {
		d, err := parseDtype(*dtypeStr, 0)
		if err != nil {
			return err
		}
		scalar = scalarFlag(d)
	}

	opt := store.WriteOptions{
		Interpolation: kind,
		ChunkShape:    chunk,
	}
	var m *cas.Manifest
	var st cas.PutStats
	if scalar == scalarF32 {
		data, err := readFloats32(fs.Arg(0))
		if err != nil {
			return err
		}
		m, st, err = packSlice(c, prev, *field, data, shape, *eb, *rel, opt)
		if err != nil {
			return err
		}
	} else {
		data, err := readFloats(fs.Arg(0))
		if err != nil {
			return err
		}
		m, st, err = packSlice(c, prev, *field, data, shape, *eb, *rel, opt)
		if err != nil {
			return err
		}
	}
	if err := c.Seal(); err != nil {
		return err
	}
	fmt.Printf("snapshot %s: %d tiles, %d bytes; %d new blobs (%d bytes), %d deduplicated (%d bytes)\n",
		m.Name(), len(m.Tiles), m.Bytes(), st.NewBlobs, st.NewBytes, st.DedupBlobs, st.DedupBytes)
	return nil
}

// scalarFlag mirrors the manifest's scalar byte without importing core
// into flag parsing.
type scalarFlag uint8

const (
	scalarF64 scalarFlag = 0
	scalarF32 scalarFlag = 1
)

// packSlice stages data as the field's next snapshot; eb and rel are the
// flags as given (0: no -eb), resolved against the series by the same
// rule the server's write endpoints apply.
func packSlice[T grid.Scalar](c *cas.Store, prev *cas.Manifest, field string, data []T, shape []int, eb float64, rel bool, opt store.WriteOptions) (*cas.Manifest, cas.PutStats, error) {
	g, err := grid.FromSlice(data, shape)
	if err != nil {
		return nil, cas.PutStats{}, err
	}
	if opt.ErrorBound, err = store.SeriesBound(g, prev, eb, rel); err != nil {
		return nil, cas.PutStats{}, err
	}
	return store.PackSnapshot(c, field, g, opt)
}

func cmdSnapshotLs(args []string) error {
	fs := flag.NewFlagSet("snapshot ls", flag.ExitOnError)
	dir := fs.String("cas", "", "snapshot store directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("snapshot ls requires -cas")
	}
	c, err := cas.Open(*dir)
	if err != nil {
		return err
	}
	snaps := c.Snapshots()
	fmt.Printf("%-24s %-16s %-12s %-8s %8s %10s %12s\n",
		"SNAPSHOT", "SHAPE", "CHUNK", "DTYPE", "TILES", "EB", "BYTES")
	for _, sn := range snaps {
		dtype := "f64"
		if sn.Scalar == uint8(scalarF32) {
			dtype = "f32"
		}
		fmt.Printf("%-24s %-16s %-12s %-8s %8d %10.3g %12d\n",
			sn.Name, shapeString(sn.Shape), shapeString(sn.Chunk),
			dtype, sn.Tiles, sn.ErrorBound, sn.Bytes)
	}
	st := c.Stats()
	var logical int64
	for _, sn := range snaps {
		logical += sn.Bytes
	}
	fmt.Printf("store: %d snapshots, %d unique blobs, %d bytes on disk", st.Snapshots, st.Blobs, st.BlobBytes)
	if logical > 0 && st.BlobBytes > 0 {
		fmt.Printf(" (dedup %.2fx)", float64(logical)/float64(st.BlobBytes))
	}
	fmt.Println()
	return nil
}

func cmdSnapshotRm(args []string) error {
	fs := flag.NewFlagSet("snapshot rm", flag.ExitOnError)
	dir := fs.String("cas", "", "snapshot store directory")
	name := fs.String("name", "", "snapshot to delete, e.g. density@t1")
	fs.Parse(args)
	if *dir == "" || *name == "" {
		return fmt.Errorf("snapshot rm requires -cas and -name field@tN")
	}
	field, t, err := cas.ParseSnapshotName(*name)
	if err != nil {
		return err
	}
	c, err := cas.Open(*dir)
	if err != nil {
		return err
	}
	if err := c.Delete(field, t); err != nil {
		return err
	}
	fmt.Printf("deleted %s (blobs it alone referenced are reclaimed by snapshot gc)\n", *name)
	return nil
}

func cmdSnapshotGc(args []string) error {
	fs := flag.NewFlagSet("snapshot gc", flag.ExitOnError)
	dir := fs.String("cas", "", "snapshot store directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("snapshot gc requires -cas")
	}
	c, err := cas.Open(*dir)
	if err != nil {
		return err
	}
	st, err := c.GC()
	if err != nil {
		return err
	}
	fmt.Printf("gc: reclaimed %d blobs, %d bytes\n", st.Blobs, st.Bytes)
	return nil
}
