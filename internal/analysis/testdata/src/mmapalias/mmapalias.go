// Package mmapalias exercises the mmap-alias lifetime checker: unsafe
// views over mapped bytes (the flat index's generic view) must stay
// inside the type that owns the mapping's Close; package-level variables
// and fields of non-owning types are flagged.
package mmapalias

import "unsafe"

// viewInt32 is the alias-producer shape from the flat index's format.go:
// a typed view over a parameter's bytes.
func viewInt32(b []byte, n int) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// view is the generic alias-producer shape from the flat index's
// format.go: one typed view per element type.
func view[T int32 | int64 | float32 | float64](b []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(T(0))))
}

// viewAll is a transitive producer: it returns another producer's view.
func viewAll(b []byte) []int32 {
	return viewInt32(b, len(b)/4)
}

// viewString is the string-shaped view.
func viewString(b []byte) string {
	return unsafe.String(&b[0], len(b))
}

var fileBytes = make([]byte, 8)

var eager = viewInt32(fileBytes, 1) // want `mmap-aliased slice stored in package-level var eager outlives the mapping's Close`

var leaked []int32

// holder has no Close method and no owner mark: views stored in its
// fields can outlive the mapping.
type holder struct {
	offs []int32
	wts  []float32
	name string
}

// mapping owns its file mapping: Close is the unmap point, so views may
// live in its fields.
type mapping struct {
	data []byte
	offs []int32
}

func (m *mapping) Close() error { return nil }

// viewStash has no Close of its own but holds views on behalf of the
// mapping that does; the mark vouches for the ownership chain.
//
//wwt:mmap-owner
type viewStash struct {
	offs []int32
}

func store(b []byte, h *holder, m *mapping, vs *viewStash) {
	leaked = viewInt32(b, 2) // want `mmap-aliased slice stored in package-level var leaked outlives the mapping's Close`
	h.offs = viewAll(b)      // want `mmap-aliased slice stored in field offs of holder, which has no Close and no //wwt:mmap-owner mark`
	h.wts = view[float32](b) // want `mmap-aliased slice stored in field wts of holder, which has no Close and no //wwt:mmap-owner mark`
	h.name = viewString(b)   // want `mmap-aliased string stored in field name of holder, which has no Close and no //wwt:mmap-owner mark`
	m.offs = viewInt32(b, 2)
	m.offs = view[int32](b)
	vs.offs = viewInt32(b, 2)
	local := viewInt32(b, 2)
	_ = local
}
