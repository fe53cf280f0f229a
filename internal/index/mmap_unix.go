//go:build unix

package index

import (
	"os"
	"syscall"
)

// mapFile memory-maps path read-only: opening a flat index maps its pages
// without reading them, and postings pages fault in lazily as probes touch
// them.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Some filesystems refuse mmap; fall back to the portable reader.
		return readFileAligned(path)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
