// Package text provides the low-level IR primitives used throughout WWT:
// tokenization, stopword filtering, Porter stemming, and Jaccard
// similarity over token bags. Corpus statistics (IDF) live in the index
// package.
//
// All functions are deterministic and allocation-conscious; the package has
// no dependencies outside the standard library.
package text

import (
	"strings"
	"unicode"
)

// Tokenize lowercases s and splits it into maximal runs of letters and
// digits. Punctuation, markup remnants and whitespace act as separators.
// The returned slice is freshly allocated.
func Tokenize(s string) []string {
	var toks []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, lower[start:])
	}
	return toks
}

// stopwords is a compact English stopword list tuned for header/context
// matching: determiners, prepositions and auxiliaries that carry no column
// semantics. Content-bearing short words ("us", "uk") are deliberately kept.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"at": true, "by": true, "for": true, "to": true, "and": true, "or": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"with": true, "as": true, "from": true, "that": true, "this": true,
	"these": true, "those": true, "it": true, "its": true, "their": true,
	"his": true, "her": true, "have": true, "has": true, "had": true,
	"but": true, "not": true, "no": true, "all": true, "any": true,
	"can": true, "will": true, "into": true, "about": true, "than": true,
	"per": true, "via": true, "s": true, "t": true,
}

// IsStopword reports whether tok (already lowercased) is on the stopword
// list used by Normalize.
func IsStopword(tok string) bool { return stopwords[tok] }

// Normalize runs the full analysis chain used by the index and by all
// similarity features: Tokenize, drop stopwords, Porter-stem each survivor.
// Numeric tokens pass through unstemmed.
func Normalize(s string) []string {
	raw := Tokenize(s)
	out := raw[:0]
	for _, t := range raw {
		if stopwords[t] {
			continue
		}
		out = append(out, Stem(t))
	}
	return out
}

// JaccardTokens returns the Jaccard similarity of two token sets.
func JaccardTokens(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := make(map[string]bool, len(a))
	for _, t := range a {
		sa[t] = true
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
