package tracestore

import (
	"fmt"
	"os"
)

// Handle is a Reader that owns the file it reads. The file stays on disk
// and is scanned chunk by chunk, so Compile works out-of-core on traces
// larger than RAM.
type Handle struct {
	*Reader
	file *os.File
}

// Open opens a trace store file. A file in any other encoding fails the
// header check with an error wrapping ErrCorrupt.
func Open(path string) (*Handle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: opening %s: %w", path, err)
	}
	return &Handle{Reader: r, file: f}, nil
}

// Close releases the underlying file.
func (h *Handle) Close() error { return h.file.Close() }
