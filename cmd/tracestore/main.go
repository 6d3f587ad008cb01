// Command tracestore inspects, verifies, rewrites, and (for testing)
// corrupts trace files in the chunked columnar store format:
//
//	tracestore inspect fleet.trace           # header, chunk, and job summary
//	tracestore verify fleet.trace            # full checksum scan, damage report
//	tracestore convert -o new.trace old.trace  # re-chunk (-chunk) and scrub damage
//	tracestore corrupt -seed 7 -n 4 f.trace  # flip bytes in place, for recovery drills
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sdfm/internal/fault"
	"sdfm/internal/tracestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestore: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "inspect":
		err = inspect(args)
	case "verify":
		err = verify(args)
	case "convert":
		err = convert(args)
	case "corrupt":
		err = corrupt(args)
	case "help", "-h", "--help":
		usage()
		return
	default:
		log.Printf("unknown command %q", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tracestore <command> [flags] <file>

commands:
  inspect   print header metadata, chunk index, and job summary
  verify    re-read every chunk, checking all checksums; report damage
  convert   rewrite a trace into a fresh file, re-chunked (-chunk) and scrubbed of damage (-o)
  corrupt   deterministically flip bytes in place (-seed, -n) for recovery drills`)
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	chunks := fs.Bool("chunks", false, "also list every chunk")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one file, got %d", fs.NArg())
	}
	h, err := tracestore.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()

	meta := h.Meta()
	minTS, maxTS := h.TimeBounds()
	fmt.Printf("%s: trace store, format version %d\n", fs.Arg(0), tracestore.Version)
	fmt.Printf("scan period: %ds  thresholds: %v\n", meta.ScanPeriodSeconds, meta.Thresholds)
	fmt.Printf("entries: %d  jobs: %d  time range: [%d, %d] (%.1f h)\n",
		h.NumEntries(), len(h.Jobs()), minTS, maxTS, float64(maxTS-minTS)/3600)
	fmt.Printf("chunks: %d\n", h.NumChunks())
	if *chunks {
		for i, ci := range h.Chunks() {
			comp := "raw"
			if ci.Compressed {
				comp = "lz77"
			}
			fmt.Printf("  chunk %3d @%-10d %6d entries  %8d bytes stored (%s, %.2fx)  ts [%d, %d]\n",
				i, ci.Offset, ci.Entries, ci.StoredLen, comp,
				float64(ci.RawLen)/float64(ci.StoredLen), ci.MinTS, ci.MaxTS)
		}
	}
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify: want exactly one file, got %d", fs.NArg())
	}
	h, err := tracestore.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()
	sk, entries, err := h.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d chunks, %d entries readable\n", fs.Arg(0), h.NumChunks(), entries)
	if sk.Chunks == 0 && sk.Entries == 0 {
		fmt.Println("all checksums verified; no damage")
		return nil
	}
	fmt.Printf("DAMAGED: %d chunks and %d entries unreadable\n", sk.Chunks, sk.Entries)
	for _, rg := range sk.Ranges {
		fmt.Printf("  chunk %d @%d: %d entries, ts [%d, %d]: %s\n",
			rg.Chunk, rg.Offset, rg.Entries, rg.MinTS, rg.MaxTS, rg.Reason)
	}
	// Damage is survivable (readers skip it) but worth a nonzero exit so
	// scripts notice.
	os.Exit(1)
	return nil
}

func convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output file (required)")
	chunkEntries := fs.Int("chunk", 0, "chunk size in entries (0: default)")
	fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("convert: want -o OUT and exactly one input file")
	}
	// Creating the output truncates it, and the input is read as it is
	// written: converting a file onto itself would destroy it.
	in, err := os.Stat(fs.Arg(0))
	if err != nil {
		return err
	}
	if o, err := os.Stat(*out); err == nil && os.SameFile(in, o) {
		return fmt.Errorf("convert: output %s is the input file", *out)
	}
	h, err := tracestore.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer h.Close()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // on the error paths; success closes it below

	// Streams chunk to chunk; nothing is materialized.
	var opts []tracestore.WriterOption
	if *chunkEntries > 0 {
		opts = append(opts, tracestore.WithChunkEntries(*chunkEntries))
	}
	w, err := tracestore.NewWriter(f, h.Meta(), opts...)
	if err != nil {
		return err
	}
	if err := h.Scan(w.Append); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if sk := h.Skipped(); sk.Chunks > 0 || sk.Entries > 0 {
		fmt.Printf("input damage skipped: %d chunks, %d entries\n", sk.Chunks, sk.Entries)
	}
	fmt.Printf("wrote %s: %d entries\n", *out, w.Entries())
	return nil
}

func corrupt(args []string) error {
	fs := flag.NewFlagSet("corrupt", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "flip-position seed")
	n := fs.Int("n", 1, "number of bytes to flip")
	skipHeader := fs.Int("skip", 64, "leave the first N bytes untouched (the header)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("corrupt: want exactly one file, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if *skipHeader >= len(buf) {
		return fmt.Errorf("corrupt: %s is only %d bytes, nothing past -skip %d", path, len(buf), *skipHeader)
	}
	region := buf[*skipHeader:]
	offsets := fault.FlipBytes(region, *seed, *n)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for i := range offsets {
		offsets[i] += *skipHeader
	}
	fmt.Printf("flipped %d bytes of %s at offsets %v (seed %d)\n", len(offsets), path, offsets, *seed)
	return nil
}
