package corpusgen

import (
	"math/rand"
	"strings"
	"testing"

	"wwt/internal/extract"
)

func TestDomainsCoverWorkload(t *testing.T) {
	ds := Domains(rand.New(rand.NewSource(1)))
	if len(ds) != 59 {
		t.Fatalf("domains = %d, want 59 (one per Table 1 query)", len(ds))
	}
	single, double, triple := 0, 0, 0
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Errorf("duplicate domain name %q", d.Name)
		}
		names[d.Name] = true
		if len(d.Query) != len(d.Keys) {
			t.Errorf("%s: query/keys length mismatch", d.Name)
		}
		switch len(d.Query) {
		case 1:
			single++
		case 2:
			double++
		case 3:
			triple++
		default:
			t.Errorf("%s: bad query arity %d", d.Name, len(d.Query))
		}
		// Every query key must exist among the domain's attributes.
		for _, k := range d.Keys {
			if d.attrIndex(k) < 0 {
				t.Errorf("%s: key %q has no attribute", d.Name, k)
			}
		}
		if len(d.Rows) == 0 {
			t.Errorf("%s: no entities", d.Name)
		}
		for _, row := range d.Rows {
			if len(row) != len(d.Attrs) {
				t.Fatalf("%s: row width %d != attrs %d", d.Name, len(row), len(d.Attrs))
			}
		}
	}
	// Paper's split: 5 single, 37 two-column, 17 three-column.
	if single != 5 || double != 37 || triple != 17 {
		t.Errorf("query arity split = %d/%d/%d, want 5/37/17", single, double, triple)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42})
	b := Generate(Config{Seed: 42})
	if len(a.Pages) != len(b.Pages) {
		t.Fatalf("page counts differ: %d vs %d", len(a.Pages), len(b.Pages))
	}
	for i := range a.Pages {
		if a.Pages[i].HTML != b.Pages[i].HTML {
			t.Fatalf("page %d differs between identical seeds", i)
		}
	}
	c := Generate(Config{Seed: 43})
	same := true
	for i := range a.Pages {
		if i < len(c.Pages) && a.Pages[i].HTML != c.Pages[i].HTML {
			same = false
			break
		}
	}
	if same && len(a.Pages) == len(c.Pages) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGroundTruthMatchesExtraction(t *testing.T) {
	c := Generate(Config{Seed: 7, Scale: 0.5})
	tables := c.ExtractAll(extract.NewOptions())
	if len(tables) == 0 {
		t.Fatal("no tables extracted")
	}
	extracted := map[string]int{}
	for _, tb := range tables {
		extracted[tb.ID] = tb.NumCols()
	}
	found, missing := 0, 0
	for id, keys := range c.Truth {
		ncols, ok := extracted[id]
		if !ok {
			missing++
			continue
		}
		found++
		if ncols != len(keys) {
			t.Errorf("table %s: extracted %d cols, truth has %d keys", id, ncols, len(keys))
		}
	}
	if found == 0 {
		t.Fatal("no ground-truth tables were extracted")
	}
	// The extractor may reject a few generated tables (very small ones),
	// but the overwhelming majority must round-trip.
	if missing*10 > found {
		t.Errorf("too many truth tables missing after extraction: %d missing vs %d found", missing, found)
	}
}

func TestJunkTablesFiltered(t *testing.T) {
	c := Generate(Config{Seed: 7, Scale: 0.5})
	tables := c.ExtractAll(extract.NewOptions())
	for _, tb := range tables {
		if strings.HasPrefix(tb.URL, "http://junk.example/") {
			t.Errorf("junk page table extracted as data: %s", tb.ID)
		}
	}
}

func TestRelevantTablesCarryQueryAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := Domains(rng)
	for _, d := range ds {
		if d.Relevant == 0 {
			continue
		}
		for i := 0; i < 5; i++ {
			spec := buildRelevantTable(d, rng)
			// Key attribute always present.
			hasKey := false
			mapped := 0
			for _, k := range spec.keys {
				if k == d.Keys[0] {
					hasKey = true
				}
				for _, qk := range d.Keys {
					if k == qk {
						mapped++
						break
					}
				}
			}
			if !hasKey {
				t.Fatalf("%s: relevant table missing key attribute", d.Name)
			}
			min := 1
			if len(d.Keys) >= 2 {
				min = 2
			}
			if mapped < min {
				t.Fatalf("%s: relevant table has %d query attrs, need >= %d", d.Name, mapped, min)
			}
			if len(spec.body) == 0 || len(spec.body[0]) != len(spec.keys) {
				t.Fatalf("%s: malformed body", d.Name)
			}
		}
	}
}

func TestConfusableTablesLackSecondAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := Domains(rng)
	for _, d := range ds {
		if len(d.Keys) < 2 || d.Confusable == 0 {
			continue
		}
		spec := buildConfusableTable(d, rng)
		for _, k := range spec.keys[1:] {
			for _, qk := range d.Keys[1:] {
				if k == qk {
					t.Fatalf("%s: confusable table carries query attr %q", d.Name, k)
				}
			}
		}
		if spec.keys[0] != d.Keys[0] {
			t.Fatalf("%s: confusable table missing key attr", d.Name)
		}
	}
}

func TestNoiseProfilesProduceHeaderlessTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := Domains(rng)
	var headerless, total int
	for _, d := range ds {
		for i := 0; i < 20; i++ {
			spec := buildRelevantTable(d, rng)
			total++
			if len(spec.headerRows) == 0 {
				headerless++
			}
		}
	}
	frac := float64(headerless) / float64(total)
	if frac < 0.08 || frac > 0.45 {
		t.Errorf("headerless fraction = %.2f, want within [0.08, 0.45] (paper: 0.18)", frac)
	}
}

func TestRenderTableParses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := Domains(rng)
	d := ds[0]
	spec := buildRelevantTable(d, rng)
	html := renderTable(spec)
	page := "<html><body>" + html + "</body></html>"
	tables := extract.Page("u", page, extract.NewOptions())
	if len(tables) != 1 {
		t.Fatalf("rendered table did not extract: %d tables", len(tables))
	}
	if tables[0].NumCols() != len(spec.keys) {
		t.Errorf("cols = %d, want %d", tables[0].NumCols(), len(spec.keys))
	}
}

func TestCorpusScaleControlsSize(t *testing.T) {
	small := Generate(Config{Seed: 9, Scale: 0.3, JunkPages: 5})
	big := Generate(Config{Seed: 9, Scale: 1.0, JunkPages: 5})
	if len(small.Truth) >= len(big.Truth) {
		t.Errorf("scale had no effect: %d vs %d", len(small.Truth), len(big.Truth))
	}
}

func TestDomainByName(t *testing.T) {
	c := Generate(Config{Seed: 1, Scale: 0.2, JunkPages: 1})
	if c.DomainByName("country-currency") == nil {
		t.Error("country-currency domain missing")
	}
	if c.DomainByName("nope") != nil {
		t.Error("phantom domain")
	}
}

// DomainByName returns the named domain, or nil.
func (c *Corpus) DomainByName(name string) *Domain {
	for _, d := range c.Domains {
		if d.Name == name {
			return d
		}
	}
	return nil
}
