package index

// On-disk formats. An index directory holds exactly two kinds of file:
//
//   - The flat sharded index (docs.wwt + postings-NNN.wwt) is the serving
//     form: a versioned, mmap-friendly layout of the frozen Searcher's CSR
//     arrays. Opening it is page mapping plus validation of the headers,
//     of the two string tables' offsets and of every posting's doc number
//     (O(docs + terms + postings), no decode), with a portable
//     read-into-memory fallback where mmap is unavailable.
//
//   - The table store (store.gob) is a decode-on-load snapshot of the
//     directory's tables in doc order, prefixed with an 8-byte magic plus a
//     uint32 format version so a stale or foreign file fails with a clear
//     error instead of a decoder error deep in the stack. WriteDir is its
//     only writer and ReadTables its only reader.
//
// Table store layout (format version 2):
//
//	offset  size  field
//	0       8     magic "WWTSTG01"
//	8       4     format version (2), little-endian
//	12      ...   one encoding/gob value, storeWire:
//	                Strings []string   the segment's distinct texts, in
//	                                   first-use order; Strings[0] == ""
//	                Tables  []wireTable in doc order
//
// A wireTable holds its ID inline (IDs are unique) and every other text as
// a uint32 index into Strings: URL, PageTitle, Cells (row-major) and
// Snippets, beside the snippets' float64 Scores. TitleRows and HeaderRows
// count the leading title and header rows of Rows, whose entries are
// cellCount<<1 | styled. Styles carries one byte per cell of each styled
// row (bit 0 bold, 1 italic, 2 underline, 3 <th>; the other bits are
// zero); a row without any marker carries none. The reader rejects an
// unresolved reference, a cell, style-byte or score count that disagrees
// with the rows, unknown style bits, and an empty or repeated ID. Version
// 1 (a gob of the tables themselves) is retired: it fails with an error
// naming wwt-index, and no reader is kept.
//
// Flat file layout (all integers little-endian, sections 8-byte aligned):
//
//	offset  size  field
//	0       8     magic "WWTFLT02"
//	8       4     format version (2)
//	12      4     kind (1 = doc table, 2 = postings shard)
//	16      4     shard index (postings files; 0 for the doc table)
//	20      4     shard count
//	24      8     numDocs
//	32      8     numTerms (0 for the doc table)
//	40      4     section count
//	44      4     block size (postings files, > 0; 0 for the doc table)
//	48      24×n  section table: {id u32, reserved u32, offset u64, bytes u64}
//	...           section payloads, each 8-byte aligned, zero padded between
//
// Postings files carry the best-weight section (secBestWeight) and four
// block-summary sections per field (secFieldBlkBase); a file without them
// fails at open. Section IDs 5 and 6 are retired: ignored when present,
// never written, never reused. Retired layouts — version-1 WWTFLT01
// files, WWTIXG01 gob index snapshots, postings files from before the
// best-weight section — fail at open with an error that names wwt-index,
// the tool that rebuilds the directory.
//
// Numeric sections are raw little-endian arrays ([]int32, []int64,
// []float32, []float64 bit patterns); on little-endian hosts they are
// aliased straight out of the mapping with zero copies, on big-endian
// hosts they are decoded into the heap. String tables
// (table IDs, term names) are an offsets array plus one concatenated
// byte blob.

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"
)

// Magic numbers and versions. The retired magics are never written; they
// are recognized only so that a directory from an older build fails with
// a precise error instead of "bad magic".
const (
	flatMagic    = "WWTFLT02"
	flatVersion  = 2
	storeMagic   = "WWTSTG01"
	storeVersion = 2

	retiredFlatMagic    = "WWTFLT01" // flat layout v1: no block summaries
	retiredIndexMagic   = "WWTIXG01" // gob snapshot of the build-time Index
	retiredStoreVersion = 1          // table store v1: gob of []*wtable.Table
)

// Flat file kinds.
const (
	kindDocs     = 1 // doc table: table IDs shared by every shard
	kindPostings = 2 // one postings shard: terms + CSR arrays
)

// Flat section IDs.
const (
	secIDOffs   = 1 // []int64, numDocs+1 offsets into secIDBlob
	secIDBlob   = 2 // concatenated table-ID bytes
	secTermOffs = 3 // []int64, numTerms+1 offsets into secTermBlob
	secTermBlob = 4 // concatenated term bytes, lexicographic order
	// IDs 5 and 6 are retired: earlier builds wrote each shard's local idf
	// and max score there. No build reads them — probes restate both from
	// the corpus-global df — so a file carrying them still opens, and the
	// IDs are never reused.
	secDF = 7 // []int32, per term
	// Per-field CSR sections: off / docs / wts for field f.
	secFieldBase = 8 // + 3*f + {0: off, 1: docs, 2: wts}
	// secBestWeight is per term the maximum per-document cross-field
	// weight sum — the idf-free factor of a term's score bound. A probe
	// rescales it by the corpus-global idf. Every postings file must carry
	// it.
	secBestWeight = 24 // []float64, per term
)

func secFieldOff(f int) uint32  { return uint32(secFieldBase + 3*f) }
func secFieldDocs(f int) uint32 { return uint32(secFieldBase + 3*f + 1) }
func secFieldWts(f int) uint32  { return uint32(secFieldBase + 3*f + 2) }

// Block-summary sections, per field f. Posting lists are cut into
// fixed-width blocks (the width lives in the header's block size field,
// byte 44); the summaries let a probe bound and skip whole blocks without
// touching their posting pages.
const secFieldBlkBase = 32 // + 4*f + {0: blkOff, 1: blkMax, 2: blkDoc, 3: fieldMaxW}

func secFieldBlkOff(f int) uint32   { return uint32(secFieldBlkBase + 4*f) }
func secFieldBlkMax(f int) uint32   { return uint32(secFieldBlkBase + 4*f + 1) }
func secFieldBlkDoc(f int) uint32   { return uint32(secFieldBlkBase + 4*f + 2) }
func secFieldFieldMax(f int) uint32 { return uint32(secFieldBlkBase + 4*f + 3) }

const flatHeaderSize = 48

// hostLittleEndian reports whether raw multi-byte loads read little-endian
// data correctly on this machine — the gate for zero-copy array aliasing.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n int) int { return (n + 7) &^ 7 }

// ---- raw array <-> byte views ------------------------------------------

// word is the element type of a numeric section.
type word interface {
	int32 | int64 | float32 | float64
}

// rawBytes returns the little-endian byte image of s: a zero-copy alias
// on little-endian hosts, an encoded copy otherwise.
func rawBytes[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	}
	out, _ := binary.Append(nil, binary.LittleEndian, s) // cannot fail: T is fixed-size
	return out
}

// view interprets b as a little-endian []T — zero-copy when the host is
// little-endian and b is aligned for T (always true for section payloads:
// the mapping base is page aligned and sections are 8-aligned), a decoded
// heap copy otherwise.
func view[T word](b []byte) []T {
	w := int(unsafe.Sizeof(T(0)))
	n := len(b) / w
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(w) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	binary.Decode(b, binary.LittleEndian, out) // cannot fail: b holds n·w bytes
	return out
}

// unsafeString returns b viewed as a string without copying. The bytes
// must stay immutable and mapped for the string's lifetime.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// alignedBuf allocates an 8-byte-aligned byte buffer (backed by []uint64,
// whose alignment the runtime guarantees) so the read-into-memory fallback
// can use the same zero-copy array views as the mmap path.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	u := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&u[0])), n)
}

// readFileAligned reads a whole file into an aligned heap buffer — the
// portable io.ReaderAt fallback used when mmap is unavailable or disabled.
func readFileAligned(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	buf := alignedBuf(int(st.Size()))
	if _, err := f.ReadAt(buf, 0); err != nil && int64(len(buf)) > 0 {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return buf, func() error { return nil }, nil
}

// ---- flat file writer ---------------------------------------------------

// section is one payload queued for writeFlatFile.
type section struct {
	id   uint32
	data []byte
}

// fsync is the one durability point of the writers: every flat file and
// table store is synced before it is closed, and every directory whose
// entries a commit depends on is synced after they are made (syncDir). A
// var so tests can record the order of the calls.
var fsync = (*os.File).Sync

// syncDir makes the entries created or renamed in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// writeFlatFile lays out header + section table + 8-aligned payloads and
// syncs the file. blockSize lands in header byte 44 (postings files; 0 for
// the doc table).
func writeFlatFile(path string, blockSize, kind, shardIndex, shardCount uint32, numDocs, numTerms uint64, secs []section) error {
	headerSize := flatHeaderSize + 24*len(secs)
	hdr := make([]byte, align8(headerSize))
	copy(hdr[0:8], flatMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], flatVersion)
	le.PutUint32(hdr[12:], kind)
	le.PutUint32(hdr[16:], shardIndex)
	le.PutUint32(hdr[20:], shardCount)
	le.PutUint64(hdr[24:], numDocs)
	le.PutUint64(hdr[32:], numTerms)
	le.PutUint32(hdr[40:], uint32(len(secs)))
	le.PutUint32(hdr[44:], blockSize)

	off := len(hdr)
	for i, s := range secs {
		e := hdr[flatHeaderSize+24*i:]
		le.PutUint32(e, s.id)
		le.PutUint64(e[8:], uint64(off))
		le.PutUint64(e[16:], uint64(len(s.data)))
		off = align8(off + len(s.data))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	var pad [8]byte
	pos := len(hdr)
	for _, s := range secs {
		if _, err := f.Write(s.data); err != nil {
			return err
		}
		pos += len(s.data)
		if p := align8(pos) - pos; p > 0 {
			if _, err := f.Write(pad[:p]); err != nil {
				return err
			}
			pos += p
		}
	}
	if err := fsync(f); err != nil {
		return err
	}
	return f.Close()
}

// ---- flat file reader ---------------------------------------------------

// flatFile is one opened flat-format file: the raw mapping, parsed header
// fields, and the section directory (views into the mapping).
type flatFile struct {
	path       string
	data       []byte
	closer     func() error
	blockSize  int
	kind       uint32
	shardIndex uint32
	shardCount uint32
	numDocs    uint64
	numTerms   uint64
	secs       map[uint32][]byte
}

func (ff *flatFile) corrupt(format string, args ...any) error {
	return fmt.Errorf("index open %s: corrupt flat index: %s", ff.path, fmt.Sprintf(format, args...))
}

// openFlatFile maps (or reads) one flat file and validates magic, version
// and the section table. noMmap forces the portable read path.
func openFlatFile(path string, noMmap bool) (*flatFile, error) {
	var (
		data   []byte
		closer func() error
		err    error
	)
	if noMmap {
		data, closer, err = readFileAligned(path)
	} else {
		data, closer, err = mapFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("index open: %w", err)
	}
	ff := &flatFile{path: path, data: data, closer: closer}
	fail := func(e error) (*flatFile, error) {
		ff.Close()
		return nil, e
	}
	if len(data) < flatHeaderSize {
		return fail(ff.corrupt("file is %d bytes, smaller than the %d-byte header", len(data), flatHeaderSize))
	}
	switch got := string(data[0:8]); got {
	case flatMagic:
	case retiredFlatMagic:
		return fail(fmt.Errorf("index open %s: flat format version 1 (%s) is retired, this build reads only version %d (%s); rebuild the directory with wwt-index",
			path, got, flatVersion, flatMagic))
	case retiredIndexMagic:
		return fail(fmt.Errorf("index open %s: this is a gob index snapshot (%s), a retired format, not a flat index file; rebuild the directory with wwt-index", path, got))
	case storeMagic:
		return fail(fmt.Errorf("index open %s: this is a gob table store (%s), not a flat index file; rebuild the directory with wwt-index", path, TablesFileName))
	default:
		return fail(fmt.Errorf("index open %s: bad magic %q — not a wwt flat index file (foreign data, or written by an incompatible build); rebuild with wwt-index", path, got))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != flatVersion {
		return fail(fmt.Errorf("index open %s: flat format version %d, this build supports %d (%s); rebuild with wwt-index",
			path, v, flatVersion, flatMagic))
	}
	ff.blockSize = int(le.Uint32(data[44:]))
	ff.kind = le.Uint32(data[12:])
	ff.shardIndex = le.Uint32(data[16:])
	ff.shardCount = le.Uint32(data[20:])
	ff.numDocs = le.Uint64(data[24:])
	ff.numTerms = le.Uint64(data[32:])
	nSecs := int(le.Uint32(data[40:]))
	if flatHeaderSize+24*nSecs > len(data) {
		return fail(ff.corrupt("section table (%d entries) overruns the file", nSecs))
	}
	ff.secs = make(map[uint32][]byte, nSecs)
	for i := 0; i < nSecs; i++ {
		e := data[flatHeaderSize+24*i:]
		id := le.Uint32(e)
		off := le.Uint64(e[8:])
		n := le.Uint64(e[16:])
		if off%8 != 0 || off+n < off || off+n > uint64(len(data)) {
			return fail(ff.corrupt("section %d at [%d, %d) overruns the %d-byte file", id, off, off+n, len(data)))
		}
		if _, dup := ff.secs[id]; dup {
			return fail(ff.corrupt("duplicate section %d", id))
		}
		ff.secs[id] = data[off : off+n]
	}
	return ff, nil
}

// Close releases the mapping. Any zero-copy views into the file become
// invalid.
func (ff *flatFile) Close() error {
	if ff.closer == nil {
		return nil
	}
	c := ff.closer
	ff.closer = nil
	return c()
}

// sec returns a section payload, failing clearly when it is absent.
func (ff *flatFile) sec(id uint32) ([]byte, error) {
	b, ok := ff.secs[id]
	if !ok {
		return nil, ff.corrupt("missing section %d", id)
	}
	return b, nil
}

// numSec returns section id of ff as a []T view when it holds exactly
// count elements. The check divides instead of multiplying, so a hostile
// header count cannot wrap the expected size around to the real one.
func numSec[T word](ff *flatFile, id uint32, count int) ([]T, error) {
	b, err := ff.sec(id)
	if err != nil {
		return nil, err
	}
	if w := int(unsafe.Sizeof(T(0))); count < 0 || len(b)%w != 0 || len(b)/w != count {
		return nil, ff.corrupt("section %d is %d bytes, want %d %Ts", id, len(b), count, T(0))
	}
	return view[T](b), nil
}

// stringsSec returns the count-string table packStrings wrote into
// sections offsID and blobID. The offsets must start at 0, never decrease
// and end at the blob's length, so every string slices inside the blob;
// the check reads each offset once, O(count).
func (ff *flatFile) stringsSec(offsID, blobID uint32, count int, what string) ([]int64, []byte, error) {
	offs, err := numSec[int64](ff, offsID, count+1)
	if err != nil {
		return nil, nil, err
	}
	blob, err := ff.sec(blobID)
	if err != nil {
		return nil, nil, err
	}
	if offs[0] != 0 {
		return nil, nil, ff.corrupt("%s offsets start at %d, want 0", what, offs[0])
	}
	for i := 1; i <= count; i++ {
		if offs[i] < offs[i-1] {
			return nil, nil, ff.corrupt("%s offset %d is %d, below the one before it (%d)", what, i, offs[i], offs[i-1])
		}
	}
	if offs[count] != int64(len(blob)) {
		return nil, nil, ff.corrupt("%s blob is %d bytes, offsets end at %d", what, len(blob), offs[count])
	}
	return offs, blob, nil
}

// packStrings flattens a string table into (offsets, blob) form.
func packStrings(ss []string) ([]int64, []byte) {
	total := 0
	for _, v := range ss {
		total += len(v)
	}
	offs := make([]int64, len(ss)+1)
	blob := make([]byte, 0, total)
	for i, v := range ss {
		offs[i] = int64(len(blob))
		blob = append(blob, v...)
	}
	offs[len(ss)] = int64(len(blob))
	return offs, blob
}
