// Command wwt-index runs the offline pipeline of §2.1 over a crawl
// directory produced by wwt-corpus (or any directory with the same
// manifest layout): parse each page, extract data tables with title/
// header/context detection, and persist the boosted 3-field index and the
// table store.
//
// The output directory holds the flat index (docs.wwt + postings-NNN.wwt)
// that wwt-serve and wwt memory-map without decoding, plus the table store
// (store.gob); -shards controls how many postings shards the terms are
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
	out := flag.String("out", "idx", "output directory for the flat index (docs.wwt, postings-NNN.wwt) and the table store (store.gob)")
	shards := flag.Int("shards", 1, fmt.Sprintf("postings shards for the flat index, 1 to %d (terms are hashed across shards)", index.MaxShards))
	flag.Parse()
	// Validate before the (long) extract+build run, against the limit the
	// writer itself enforces.
	if *shards < 1 || *shards > index.MaxShards {
		fatal(fmt.Errorf("-shards %d out of range, want 1 to %d", *shards, index.MaxShards))
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

	writeStart := time.Now()
	if err := index.WriteDir(*out, tables, *shards); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d tables from %d pages in %.1fs -> %s (flat index: %d shard(s), %.2fs)\n",
		len(tables), pages, time.Since(start).Seconds(), *out, *shards, time.Since(writeStart).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt-index:", err)
	os.Exit(1)
}
