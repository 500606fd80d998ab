package faults

import "fmt"

// Aging generators only the tests use.

// Fragment riddles the component arena with small holes: it allocates
// pairs of blocks and frees every other one, leaving free space that no
// large allocation can use — the fragmentation flavour of aging.
func (i *Injector) Fragment(component string, pairs int, blockSize int64) error {
	heap, ok := i.rt.ComponentHeap(component)
	if !ok {
		return fmt.Errorf("faults: no heap for component %q", component)
	}
	if blockSize <= 0 {
		blockSize = 64
	}
	for p := 0; p < pairs; p++ {
		keep, err := heap.Alloc(blockSize)
		if err != nil {
			return err
		}
		_ = keep // deliberately retained
		hole, err := heap.Alloc(blockSize)
		if err != nil {
			return err
		}
		if err := heap.Free(hole); err != nil {
			return err
		}
	}
	return nil
}
