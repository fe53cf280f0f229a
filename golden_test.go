package wwt_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wwt"
	"wwt/internal/core"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/workload"
)

// updateGolden rewrites the golden files from the current answers. Only a
// change that is meant to move default answers runs it, and says so.
var updateGolden = flag.Bool("update", false, "rewrite testdata/answers.golden and testdata/answers.dump.gz from the current answers")

const (
	// goldenPath holds one line per (seed, engine, query): the SHA-256 of
	// the answer's dump, with and without its float bits.
	goldenPath = "testdata/answers.golden"
	// goldenDumpPath holds the in-memory engine's dumps themselves, only
	// so that a mismatch can print what changed.
	goldenDumpPath = "testdata/answers.dump.gz"
)

// TestAnswersGolden pins every answer of the evaluation workload (the 59
// Table-1 queries) at seeds 2012 and 1729: at scale 1 through NewEngine
// and through OpenLive on a 2-shard WriteDir index, and at scale 4, whose
// edge grids are about three times as dense, through NewEngine and a
// 1-shard index. Each answer is encoded as
// a canonical dump (candidate IDs and labels, then each answer row's
// cells, support, sources and score bits, plus hashes of the model's
// bits), and its SHA-256 is compared
// with a line of testdata/answers.golden. The equivalence suites compare
// two paths of the same code; this compares the code with what it
// answered when the file was written, so a change that moves every path
// alike (a threshold, a shared helper, a reordered float sum) fails here.
//
// Go may fuse multiply-adds on some targets, so float bits are pinned on
// amd64 only: every line also holds the digest of the dump without them,
// which is what other targets compare.
//
// Only scale 1's dumps are stored, so a scale-4 mismatch prints the head
// of the new dump as its diff.
func TestAnswersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two scale-1 and two scale-4 corpora")
	}
	var got []goldenLine
	dumps := map[string]string{} // the in-memory engines', by dumpKey
	for _, run := range []struct {
		scale  float64
		shards int    // of the OpenLive directory
		suffix string // of the engine names in the golden file
	}{{1, 2, ""}, {4, 1, "@4"}} {
		for _, seed := range []int64{2012, 1729} {
			corpus := corpusgen.Generate(corpusgen.Config{Seed: seed, Scale: run.scale})
			tables := corpus.ExtractAll(extract.NewOptions())
			mem, err := wwt.NewEngine(tables, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			dir := t.TempDir()
			if err := index.WriteDir(dir, tables, run.shards); err != nil {
				t.Fatal(err)
			}
			live, err := wwt.OpenLive(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			for _, e := range []struct {
				name string
				eng  *wwt.Engine
			}{{"mem", mem}, {fmt.Sprintf("dir%d", run.shards), live}} {
				s := &wwt.QueryScratch{}
				for _, q := range workload.FromCorpus(corpus) {
					full, portable := answerDump(e.eng, q.Columns, s)
					l := goldenLine{seed, e.name + run.suffix, strings.Join(q.Columns, " | "), digest(full), digest(portable)}
					got = append(got, l)
					if e.name == "mem" {
						dumps[l.dumpKey()] = full
					}
				}
			}
		}
	}

	if *updateGolden {
		writeGolden(t, got, dumps)
		return
	}
	want, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d answers, the workload gave %d", goldenPath, len(want), len(got))
	}
	pinScores := runtime.GOARCH == "amd64"
	for i, g := range got {
		w := want[i]
		if w.key() != g.key() {
			t.Fatalf("line %d of %s is for %s, the workload's is %s", i+1, goldenPath, w.key(), g.key())
		}
		if g.portable == w.portable && (!pinScores || g.full == w.full) {
			continue
		}
		old, err := readGoldenDumps()
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("first answer that differs from %s: %s\n"+
			"digest %s, want %s (without float bits %s, want %s)\n"+
			"diff of its dump, - in %s, + now:\n%s",
			goldenPath, g.key(), g.full, w.full, g.portable, w.portable,
			goldenDumpPath, lineDiff(old[g.dumpKey()], dumps[g.dumpKey()]))
	}
}

// goldenLine is one line of the golden file.
type goldenLine struct {
	seed           int64
	engine, query  string
	full, portable string // digests of the dump with and without float bits
}

func (l goldenLine) key() string { return fmt.Sprintf("seed %d %s %q", l.seed, l.engine, l.query) }

// dumpKey names the dump of l's query; both engines of a scale give the
// same one.
func (l goldenLine) dumpKey() string {
	if _, scale, ok := strings.Cut(l.engine, "@"); ok {
		return fmt.Sprintf("seed %d @%s %q", l.seed, scale, l.query)
	}
	return fmt.Sprintf("seed %d %q", l.seed, l.query)
}

// answerDump answers columns on e with arena s and encodes the outcome
// canonically: whether probe 2 fired; each candidate's ID and labels in
// model order, with a hash of its model state's bits (features, Rel, node
// potentials, stage-1 distributions and confidences); a hash of the
// edges' bits; the merged sources; then one line per answer row with its
// cells, support, sources and score bits. portable is the same dump
// without the float bits. An error is dumped as itself.
func answerDump(e *wwt.Engine, columns []string, s *wwt.QueryScratch) (full, portable string) {
	res, m, err := wwt.AnswerWithModel(e, wwt.Query{Columns: columns}, s)
	if err != nil {
		d := fmt.Sprintf("error %q\n", err)
		return d, d
	}
	var fb, pb strings.Builder
	both := func(format string, args ...any) {
		fmt.Fprintf(&fb, format, args...)
		fmt.Fprintf(&pb, format, args...)
	}
	both("probe2 %v\n", res.UsedProbe2)
	for i, tb := range res.Tables {
		both("cand %q %v", tb.ID, res.Labeling.Y[i])
		fmt.Fprintf(&fb, " model %016x", tableStateHash(m, i))
		both("\n")
	}
	h := fnv.New64a()
	for _, ed := range m.Edges {
		fmt.Fprintf(h, "%d %d %d %d %x %x %v\n", ed.T1, ed.C1, ed.T2, ed.C2,
			math.Float64bits(ed.WAB), math.Float64bits(ed.WBA), ed.IncludeNR)
	}
	both("edges %d", len(m.Edges))
	fmt.Fprintf(&fb, " %016x", h.Sum64())
	both("\n")
	both("sources %q\n", res.Answer.Sources)
	for _, r := range res.Answer.Rows {
		both("row %q support %d sources %q", r.Cells, r.Support, r.Sources)
		fmt.Fprintf(&fb, " score %016x", math.Float64bits(r.Score))
		both("\n")
	}
	return fb.String(), pb.String()
}

// tableStateHash hashes the bits of candidate ti's per-table model state.
func tableStateHash(m *core.Model, ti int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) { h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(x))) }
	put(m.Rel[ti])
	for c := range m.Feats[ti] {
		for _, f := range m.Feats[ti][c] {
			put(f.SegSim)
			put(f.Cover)
			put(f.PMI2)
		}
		for _, x := range m.Node[ti][c] {
			put(x)
		}
		for _, x := range m.Dist[ti][c] {
			put(x)
		}
		put(m.Conf[ti][c])
	}
	return h.Sum64()
}

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// writeGolden rewrites both golden files.
func writeGolden(t *testing.T, lines []goldenLine, dumps map[string]string) {
	var b strings.Builder
	b.WriteString("# seed engine sha256(dump) sha256(dump without float bits) query\n")
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	for _, l := range lines {
		fmt.Fprintf(&b, "%d %s %s %s %s\n", l.seed, l.engine, l.full, l.portable, l.query)
		if l.engine == "mem" {
			fmt.Fprintf(zw, "=== %s\n%s", l.dumpKey(), dumps[l.dumpKey()])
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenDumpPath, zb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d digests to %s and their dumps to %s", len(lines), goldenPath, goldenDumpPath)
}

// readGolden parses the digest file, skipping comment lines.
func readGolden() ([]goldenLine, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var out []goldenLine
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, " ", 5)
		if len(f) != 5 {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, line)
		}
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", goldenPath, err)
		}
		out = append(out, goldenLine{seed, f[1], f[4], f[2], f[3]})
	}
	return out, nil
}

// readGoldenDumps reads the stored dumps by dumpKey.
func readGoldenDumps() (map[string]string, error) {
	f, err := os.Open(goldenDumpPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, part := range strings.Split(string(data), "=== ")[1:] {
		key, dump, _ := strings.Cut(part, "\n")
		out[key] = dump
	}
	return out, nil
}

// lineDiff is a line diff of two dumps by longest common subsequence:
// each old line that is gone is marked -, each new line +, with its line
// number, and at most 40 such lines are shown.
func lineDiff(old, now string) string {
	a := strings.Split(strings.TrimSuffix(old, "\n"), "\n")
	b := strings.Split(strings.TrimSuffix(now, "\n"), "\n")
	// lcs[i][j] is the LCS length of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	shown := 0
	emit := func(mark string, n int, line string) {
		if shown < 40 {
			fmt.Fprintf(&out, "%s%4d %s\n", mark, n+1, line)
		}
		shown++
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case j == len(b) || (i < len(a) && lcs[i+1][j] >= lcs[i][j+1]):
			emit("-", i, a[i])
			i++
		default:
			emit("+", j, b[j])
			j++
		}
	}
	if shown > 40 {
		fmt.Fprintf(&out, "... and %d more changed lines\n", shown-40)
	}
	return out.String()
}
