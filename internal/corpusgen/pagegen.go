package corpusgen

import (
	"fmt"
	"math/rand"
	"strings"

	"wwt/internal/extract"
	"wwt/internal/wtable"
)

// Config tunes corpus generation. The zero Seed is valid; identical
// configs generate byte-identical corpora.
type Config struct {
	Seed int64
	// Scale multiplies every domain's Relevant/Confusable counts
	// (default 1.0 when zero).
	Scale float64
	// JunkPages is the number of pages containing only non-data tables
	// (default 40 when zero).
	JunkPages int
}

// Page is one generated web page.
type Page struct {
	URL  string
	HTML string
}

// Corpus is a generated crawl plus its ground-truth ledger.
type Corpus struct {
	Pages []Page
	// Truth maps extracted-table IDs ("url#domIndex") to the semantic key
	// of every column ("" for filler columns).
	Truth map[string][]string
	// DomainOf maps table IDs to the generating domain.
	DomainOf map[string]string
	Domains  []*Domain
}

// Generate builds the full corpus: for every domain, its relevant and
// confusable tables distributed over pages with topical context, plus
// junk pages.
func Generate(cfg Config) *Corpus {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.JunkPages == 0 {
		cfg.JunkPages = 40
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{
		Truth:    make(map[string][]string),
		DomainOf: make(map[string]string),
		Domains:  Domains(rng),
	}
	pageNo := 0
	for _, d := range c.Domains {
		nRel := int(float64(d.Relevant)*cfg.Scale + 0.5)
		nConf := int(float64(d.Confusable)*cfg.Scale + 0.5)
		var specs []tableSpec
		for i := 0; i < nRel; i++ {
			specs = append(specs, buildRelevantTable(d, rng))
		}
		for i := 0; i < nConf; i++ {
			specs = append(specs, buildConfusableTable(d, rng))
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		// 1-2 tables per page. Headerless tables mostly land on bare
		// pages: a page that doesn't bother with headers rarely bothers
		// with descriptive prose either — these tables are reachable only
		// through content overlap, i.e. the second index probe (§2.2.1).
		for len(specs) > 0 {
			take := 1
			if len(specs) >= 2 && rng.Float64() < 0.3 {
				take = 2
			}
			headerless := true
			for _, sp := range specs[:take] {
				if len(sp.headerRows) > 0 {
					headerless = false
				}
			}
			bareP := 0.08
			if headerless {
				bareP = 0.8
			}
			bare := rng.Float64() < bareP
			pg := buildPage(d, specs[:take], rng, pageNo, bare, c)
			c.Pages = append(c.Pages, pg)
			specs = specs[take:]
			pageNo++
		}
	}
	for i := 0; i < cfg.JunkPages; i++ {
		url := fmt.Sprintf("http://junk.example/page%d", i)
		var b strings.Builder
		b.WriteString("<html><head><title>Portal page</title></head><body>")
		b.WriteString("<p>Welcome to the portal. Use the navigation below.</p>")
		for j := 0; j < 1+rng.Intn(2); j++ {
			b.WriteString(renderJunkTable(rng))
		}
		b.WriteString("</body></html>")
		c.Pages = append(c.Pages, Page{URL: url, HTML: b.String()})
	}
	return c
}

// buildPage renders one page holding the given table specs of domain d and
// records their ground truth. Junk tables are sometimes interleaved, which
// shifts DOM indexes exactly as on the real web.
func buildPage(d *Domain, specs []tableSpec, rng *rand.Rand, pageNo int, bare bool, c *Corpus) Page {
	url := fmt.Sprintf("http://site%d.example/%s/%d", pageNo%7, d.Name, pageNo)
	var b strings.Builder
	domIndex := 0

	// Pages alternate between the domain's own phrasing and the query's
	// phrasing: on the real web the AMT queries were worded in vocabulary
	// that existing pages actually use.
	phrase := d.Phrase
	if rng.Float64() < 0.5 {
		phrase = queryPhrase(d, rng)
	}
	if bare {
		b.WriteString("<html><head><title>Data page</title></head><body>\n")
	} else {
		title := titleCase(phrase)
		switch rng.Intn(3) {
		case 0:
			title += " - Encyclopedia"
		case 1:
			title = "List of " + phrase
		}
		b.WriteString("<html><head><title>" + escape(title) + "</title></head><body>\n")
		b.WriteString("<h1>" + escape(titleCase(phrase)) + "</h1>\n")
		b.WriteString("<p>This article lists " + escape(phrase) + ".</p>\n")
	}

	// Occasional leading junk table (nav) shifts DOM indexes.
	if rng.Float64() < 0.25 {
		b.WriteString(renderJunkTable(rng))
		domIndex++
	}
	for si, spec := range specs {
		if si > 0 {
			b.WriteString("<p>" + escape("More data about "+d.Phrase+" appears below.") + "</p>\n")
		}
		b.WriteString(renderTable(spec))
		id := fmt.Sprintf("%s#%d", url, domIndex)
		c.Truth[id] = append([]string(nil), spec.keys...)
		c.DomainOf[id] = d.Name
		domIndex++
	}
	if !bare {
		b.WriteString("<p>See also related pages about " + escape(lastWord(d.Phrase)) + ".</p>\n")
	}
	b.WriteString("</body></html>")
	return Page{URL: url, HTML: b.String()}
}

func lastWord(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return s
	}
	return f[len(f)-1]
}

// queryPhrase words a page title the way the workload query words it,
// e.g. "north american mountains by height".
func queryPhrase(d *Domain, rng *rand.Rand) string {
	if len(d.Query) == 1 {
		return d.Query[0]
	}
	sep := " and "
	if rng.Float64() < 0.5 {
		sep = " by "
	}
	return d.Query[0] + sep + strings.Join(d.Query[1:], " and ")
}

// ExtractAll runs the extractor over every page and returns the harvested
// tables. Table IDs match the Truth ledger keys by construction.
func (c *Corpus) ExtractAll(opts extract.Options) []*wtable.Table {
	var out []*wtable.Table
	for _, p := range c.Pages {
		out = append(out, extract.Page(p.URL, p.HTML, opts)...)
	}
	return out
}
