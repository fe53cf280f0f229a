package core

// Params collects every tunable of the column mapper. The six weights
// W1..W5, We are the trainable parameters of Eq. 3/4 (the paper trains
// them by exhaustive enumeration; internal/train does the same); the rest
// are the constants reported in the paper.
type Params struct {
	// Node potential weights (Eq. 3): SegSim, Cover, PMI², nr scale, bias.
	W1, W2, W3, W4, W5 float64
	// Edge potential weight (Eq. 4).
	We float64

	// UsePMI enables the corpus co-occurrence feature. WWT leaves it off
	// by default (§5.1: "WWT, which does not use the PMI2 scores by
	// default").
	UsePMI bool
	// Cooccur selects the association measure when UsePMI is set. The
	// paper uses PMI² and names "newer corpus wide co-occurrence
	// statistics" as future work (§7); CooccurDice is that extension.
	Cooccur CooccurMeasure

	// Unsegmented replaces SegSim/Cover with the plain whole-query cosine
	// against the concatenated header (the §5.2 comparison model).
	Unsegmented bool

	// Edges selects the edge-potential construction (§3.3 discusses why
	// the naive variants fail); EdgeCustom is the paper's final design.
	Edges EdgeVariant

	// Reliability parameters p_i of outSim for parts T, C, Hc, Hr, B
	// (§3.2.1; measured empirically in the paper as 1.0, 0.9, 0.5, 1.0, 0.8).
	RelTitle, RelContext, RelOtherHeaderRow, RelOtherHeaderCol, RelBody float64

	// Lambda is the smoothing constant of the nsim normalization (§3.3);
	// MinNeighborSim drops weakly similar neighbor columns (0.1).
	Lambda         float64
	MinNeighborSim float64
	// ConfidenceThreshold gates edge potentials on Pr(y|tc) (0.6).
	ConfidenceThreshold float64

	// Frequent-content-token extraction for the B part of outSim: a token
	// qualifies when it occurs in at least FreqTokenMinFrac of the rows of
	// some column and at least FreqTokenMinCount times.
	FreqTokenMinFrac  float64
	FreqTokenMinCount int

	// MinMatchFor returns m of the min-match constraint: 2 for q >= 2.
	// (kept as data to allow ablations).
	MinMatchTwoPlus int

	// PMIMaxRows caps the rows sampled by the PMI² feature per column.
	PMIMaxRows int

	// MatchContentWeight/MatchHeaderWeight blend content and header
	// similarity when computing the one-one max-matching between the
	// columns of two tables (§3.3, "Max-matching Edges").
	MatchContentWeight, MatchHeaderWeight float64
}

// DefaultParams returns the parameter set used across the experiments.
// The six weights come from the exhaustive enumeration in internal/train
// (cmd/wwt-train, training seed 777); the constants are the paper's. The
// trained optimum weighs Cover heavily against a strong negative bias:
// a column must cover most of a query column's token mass (in header or
// reliable surroundings) before a real label pays for itself, which is
// what rejects key-column-only confusable tables under min-match.
func DefaultParams() Params {
	return Params{
		W1: 1.0, W2: 8.0, W3: 0.25, W4: 0.35, W5: -5.5, We: 5.5,
		UsePMI:              false,
		RelTitle:            1.0,
		RelContext:          0.9,
		RelOtherHeaderRow:   0.5,
		RelOtherHeaderCol:   1.0,
		RelBody:             0.8,
		Lambda:              0.3,
		MinNeighborSim:      0.1,
		ConfidenceThreshold: 0.6,
		FreqTokenMinFrac:    0.3,
		FreqTokenMinCount:   2,
		MinMatchTwoPlus:     2,
		PMIMaxRows:          50,
		MatchContentWeight:  0.7,
		MatchHeaderWeight:   0.3,
	}
}

// MinMatch returns m, the minimum number of query columns a relevant table
// must cover (Eq. 8): 1 for single-column queries, MinMatchTwoPlus
// otherwise.
func (p Params) MinMatch(q int) int {
	if q < 2 {
		return 1
	}
	m := p.MinMatchTwoPlus
	if m > q {
		m = q
	}
	return m
}

// CooccurMeasure selects the corpus-wide association statistic used by
// the co-occurrence feature (§3.2.3 / §7).
type CooccurMeasure int

// Association measures.
const (
	// CooccurPMI2 is the paper's PMI² of Eq. in §3.2.3:
	// |H∩B|² / (|H|·|B|). [20] attributes its noise to the undue weight
	// low-frequency items get from the denominator.
	CooccurPMI2 CooccurMeasure = iota
	// CooccurDice is the §7 future-work extension: the Dice coefficient
	// 2|H∩B| / (|H|+|B|), which damps the low-frequency denominator
	// blow-up (a cell appearing in a single document can no longer
	// saturate the score).
	CooccurDice
)

// String names the measure.
func (m CooccurMeasure) String() string {
	if m == CooccurDice {
		return "dice"
	}
	return "pmi2"
}

// EdgeVariant selects how cross-table edges are built — the §3.3 design
// alternatives kept for ablation.
type EdgeVariant int

// Edge-potential variants.
const (
	// EdgeCustom is the paper's final design: normalized similarity,
	// confidence gating, max-matching edges, no reward for shared nr.
	EdgeCustom EdgeVariant = iota
	// EdgePotts is the naive positive Potts potential we·sim·[[ℓ=ℓ']]
	// over all similar column pairs — irrelevant columns drag relevant
	// ones toward nr.
	EdgePotts
	// EdgePottsNoNR zeroes the Potts reward when both labels are nr —
	// which overshoots the other way: irrelevant tables get pulled
	// relevant.
	EdgePottsNoNR
)

// String names the variant.
func (v EdgeVariant) String() string {
	switch v {
	case EdgePotts:
		return "potts"
	case EdgePottsNoNR:
		return "potts-no-nr"
	default:
		return "custom"
	}
}

// CorpusStats supplies corpus-wide term statistics (IDF). The index
// satisfies it; tests use small fakes.
type CorpusStats interface {
	IDF(tok string) float64
}

// PMISource supplies the document sets intersected by the PMI² feature:
// H(Qℓ) — documents carrying all of Qℓ's tokens in header or context —
// and B(cell) — documents carrying all of a cell's tokens in content.
//
// Concurrent queries probe one engine's source from their own goroutines,
// so implementations must be safe for concurrent calls. Consumers treat the
// returned doc sets as read-only, so an implementation may share them.
// *index.Searcher is the one implementation.
type PMISource interface {
	HeaderContextDocs(tokens []string) []int32
	ContentDocs(tokens []string) []int32
}
