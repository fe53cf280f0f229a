package text

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"CO2-emissions (2008)", []string{"co2", "emissions", "2008"}},
		{"", nil},
		{"---", nil},
		{"US$ 4.50", []string{"us", "4", "50"}},
		{"naïve café", []string{"naïve", "café"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStemKnownPairs(t *testing.T) {
	// Reference pairs from Porter's original test vocabulary.
	pairs := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range pairs {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	for _, s := range []string{"ab", "a", "", "x9", "2008", "co2"} {
		if got := Stem(s); got != s {
			t.Errorf("Stem(%q) = %q, want unchanged", s, got)
		}
	}
}

func TestStemIdempotentOnStems(t *testing.T) {
	// Stemming the stem of common nouns should be stable for this sample.
	for _, s := range []string{"cat", "motor", "fall", "country", "population"} {
		once := Stem(s)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable: %q -> %q -> %q", s, once, twice)
		}
	}
}

func TestNormalizeDropsStopwords(t *testing.T) {
	got := Normalize("The population of the United States")
	want := []string{"popul", "unit", "state"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
}

func TestJaccardTokens(t *testing.T) {
	if j := JaccardTokens([]string{"a", "b"}, []string{"b", "c"}); math.Abs(j-1.0/3) > 1e-9 {
		t.Errorf("Jaccard = %f, want 1/3", j)
	}
	if j := JaccardTokens(nil, []string{"a"}); j != 0 {
		t.Errorf("Jaccard with empty = %f, want 0", j)
	}
	if j := JaccardTokens([]string{"a", "a"}, []string{"a"}); math.Abs(j-1) > 1e-9 {
		t.Errorf("Jaccard should use sets: got %f", j)
	}
}

// FuzzNormalizeTrimSpace pins two properties the interned cell keys rest
// on. Surrounding whitespace never changes an analysis, so a cell
// analyzed untrimmed and one analyzed trimmed get one key. And every
// token is a non-empty string without a space, so splitting a key — the
// tokens joined by single spaces — on spaces gives the tokens back, and
// the interner's token set of a key is the set of its tokens.
func FuzzNormalizeTrimSpace(f *testing.F) {
	for _, s := range []string{"", "  ", " Vasco da Gama ", "\tRunning ", "Straße İstanbul", "the of", "42 x\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Normalize(s)
		if trimmed := Normalize(strings.TrimSpace(s)); !slices.Equal(trimmed, toks) {
			t.Fatalf("Normalize(%q) = %q, but trimmed %q", s, toks, trimmed)
		}
		for _, w := range toks {
			if w == "" || strings.Contains(w, " ") {
				t.Fatalf("Normalize(%q) has token %q", s, w)
			}
		}
	})
}
