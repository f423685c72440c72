package trainingdb

import (
	"fmt"
	"os"
	"sync"
)

// OpenCompiledFile loads a v2 artifact for serving: the file is
// memory-mapped read-only where the platform supports it (falling back
// to a plain read), the header and section table are validated, and
// the returned view aliases the mapping — matrix pages fault in on
// first access instead of at load. Section payload CRCs are NOT
// checked here (that would touch every page and defeat the lazy load);
// run `tdbtool verify` on artifacts that crossed a network or a
// questionable disk.
//
// close releases the mapping. It must not be called while the view —
// or any locator, snapshot or estimate still referencing its strings —
// is in use; the serving pattern is to close only after a replacement
// snapshot has been published and drained.
func OpenCompiledFile(path string) (c *Compiled, close func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trainingdb: open artifact: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("trainingdb: stat artifact: %w", err)
	}
	if st.Size() > int64(int(^uint(0)>>1)) {
		f.Close()
		return nil, nil, fmt.Errorf("trainingdb: artifact too large (%d bytes)", st.Size())
	}
	size := int(st.Size())
	if data, closer, ok := mapFile(f, size); ok {
		// The mapping outlives the descriptor.
		f.Close()
		c, err := DecodeCompiled(data, DecodeOptions{})
		if err != nil {
			closer()
			return nil, nil, err
		}
		return c, idempotentClose(closer), nil
	}
	data, err := os.ReadFile(path)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("trainingdb: read artifact: %w", err)
	}
	c, err = DecodeCompiled(data, DecodeOptions{})
	if err != nil {
		return nil, nil, err
	}
	return c, func() error { return nil }, nil
}

// idempotentClose makes a close func safe to call more than once:
// double-closing a munmap'd region would unmap whatever got remapped
// there in between, so every call after the first returns the first
// call's result without re-closing. The close funcs this package hands
// out flow through several owners (service, instance, venue registry,
// deferred cleanup on error paths) and the cheapest correct contract
// is that all of them may call it.
func idempotentClose(f func() error) func() error {
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() { err = f() })
		return err
	}
}
