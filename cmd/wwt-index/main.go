// Command wwt-index runs the offline pipeline of §2.1 over a crawl
// directory produced by wwt-corpus (or any directory with the same
// manifest layout): parse each page, extract data tables with title/
// header/context detection, and persist the boosted 3-field index and the
// table store.
//
// Alongside the gob snapshot it writes the sharded flat index
// (docs.wwt + postings-NNN.wwt) that wwt-serve memory-maps for O(1)
// startup; -shards controls how many postings shards the terms are
// hashed across.
//
//	wwt-index -crawl ./crawl -out ./idx -shards 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/wtable"
)

type manifestEntry struct {
	URL  string `json:"url"`
	File string `json:"file"`
}

func main() {
	crawl := flag.String("crawl", "crawl", "crawl directory (from wwt-corpus)")
	out := flag.String("out", "idx", "output directory for index.gob, store.gob and the flat shard files")
	shards := flag.Int("shards", 1, "postings shards for the flat index (terms are hashed across shards)")
	flatVersion := flag.Int("flat-version", 2, "flat index format version: 2 (WWTFLT02, block-max postings) or 1 (WWTFLT01, for older readers)")
	blockSize := flag.Int("block-size", index.DefaultBlockSize, "postings per block-max block (v2 only; must be > 0)")
	flag.Parse()
	// Validate the flat-format options before the (long) extract+build run,
	// with the same versioned precision the writer itself enforces.
	if *flatVersion != 1 && *flatVersion != 2 {
		fatal(fmt.Errorf("flat format version %d not supported, this build writes 1 (WWTFLT01) and 2 (WWTFLT02)", *flatVersion))
	}
	if *flatVersion == 2 && *blockSize <= 0 {
		fatal(fmt.Errorf("flat format v2 (WWTFLT02) requires a positive -block-size, got %d", *blockSize))
	}

	start := time.Now()
	data, err := os.ReadFile(filepath.Join(*crawl, "manifest.json"))
	if err != nil {
		fatal(err)
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(data, &manifest); err != nil {
		fatal(err)
	}

	opts := extract.NewOptions()
	var tables []*wtable.Table
	pages := 0
	for _, m := range manifest {
		html, err := os.ReadFile(filepath.Join(*crawl, m.File))
		if err != nil {
			fatal(fmt.Errorf("reading %s: %w", m.File, err))
		}
		tables = append(tables, extract.Page(m.URL, string(html), opts)...)
		pages++
	}

	ix, err := index.Build(tables)
	if err != nil {
		fatal(err)
	}
	st := index.NewStore()
	for _, t := range tables {
		if err := st.Add(t); err != nil {
			fatal(err)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if err := ix.Save(filepath.Join(*out, "index.gob")); err != nil {
		fatal(err)
	}
	if err := st.Save(filepath.Join(*out, "store.gob")); err != nil {
		fatal(err)
	}
	flatStart := time.Now()
	wopts := index.WriteShardedOptions{FormatVersion: *flatVersion, BlockSize: *blockSize}
	if err := index.WriteSharded(*out, index.NewSearcher(ix), *shards, wopts); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d tables from %d pages in %.1fs -> %s (flat index: %d shard(s), %.2fs)\n",
		len(tables), pages, time.Since(start).Seconds(), *out, *shards, time.Since(flatStart).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt-index:", err)
	os.Exit(1)
}
