package core

// Params collects the column mapper's settable parameters. The six weights
// W1..W5, We are the trainable parameters of Eq. 3/4 (the paper trains
// them by exhaustive enumeration; internal/train does the same); the rest
// select the model variants the experiments compare. Everything else the
// paper reports as a fixed value is a constant below.
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
}

// The paper's constants. The float ones are typed float64, so each holds
// the float64 nearest its literal. The only expressions that fold a
// constant with another, 1 - relTitle and the like in outSim, are exact
// in float64, so they equal the subtraction done at run time.
const (
	// Reliabilities p_i of outSim for the parts T, C, Hc, Hr and B
	// (§3.2.1; measured empirically in the paper as 1.0, 0.9, 0.5, 1.0,
	// 0.8): the title, the context, the column's other header rows, the
	// other columns' headers and the frequent body tokens.
	relTitle          float64 = 1.0
	relContext        float64 = 0.9
	relOtherHeaderRow float64 = 0.5
	relOtherHeaderCol float64 = 1.0
	relBody           float64 = 0.8

	// lambda is the smoothing constant of the nsim normalization (§3.3).
	lambda float64 = 0.3
	// minNeighborSim drops weakly similar neighbor columns (§3.3).
	minNeighborSim float64 = 0.1
	// confidenceThreshold gates edge potentials on Pr(y|tc) (§3.3).
	confidenceThreshold float64 = 0.6

	// A body token is frequent, and joins the B part of outSim, when it
	// occurs in at least freqTokenMinFrac of the rows of some column and
	// at least freqTokenMinCount times.
	freqTokenMinFrac  float64 = 0.3
	freqTokenMinCount         = 2

	// pmiMaxRows caps the rows sampled by the PMI² feature per column.
	pmiMaxRows = 50

	// matchContentWeight and matchHeaderWeight blend content and header
	// similarity in the one-one max-matching between the columns of two
	// tables (§3.3, "Max-matching Edges").
	matchContentWeight float64 = 0.7
	matchHeaderWeight  float64 = 0.3
)

// DefaultParams returns the parameter set used across the experiments.
// The six weights come from the exhaustive enumeration in internal/train
// (cmd/wwt-train, training seed 777). The trained optimum weighs Cover
// heavily against a strong negative bias: a column must cover most of a
// query column's token mass (in header or reliable surroundings) before a
// real label pays for itself, which is what rejects key-column-only
// confusable tables under min-match.
func DefaultParams() Params {
	return Params{W1: 1.0, W2: 8.0, W3: 0.25, W4: 0.35, W5: -5.5, We: 5.5}
}

// MinMatch returns m, the minimum number of query columns a relevant table
// of a q-column query must cover (Eq. 8): 1 for single-column queries, 2
// otherwise.
func MinMatch(q int) int {
	if q < 2 {
		return 1
	}
	return 2
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
