package tensor

import (
	"fmt"
	"sync"

	"photofourier/internal/buf"
)

// The scratch pool recycles whole tensors — struct, shape backing, and data
// — across the process. Inference pipelines hand intermediates between
// packages (core produces a layer output, nn consumes and releases it), so
// the pool is global: whichever package releases a tensor, the next
// GetScratch of that size reuses it. Steady state is allocation-free.
var (
	scratchData    buf.SizedPool[float64]
	scratchStructs sync.Pool
)

// GetScratch returns a pooled tensor of the given shape with UNSPECIFIED
// contents; use GetScratchZeroed when the caller accumulates instead of
// overwriting. Release it with PutScratch when no live reference remains.
func GetScratch(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	t, _ := scratchStructs.Get().(*Tensor)
	if t == nil {
		t = &Tensor{}
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = scratchData.Get(n)
	return t
}

// GetScratchZeroed is GetScratch with every element cleared.
func GetScratchZeroed(shape ...int) *Tensor {
	t := GetScratch(shape...)
	clear(t.Data)
	return t
}

// PutScratch recycles a tensor obtained from GetScratch (or any tensor the
// caller owns outright): the data returns to the size pool and the struct —
// shape backing included — to the struct pool. The caller must hold the only
// live reference; t.Data is nilled to surface use-after-release.
func PutScratch(t *Tensor) {
	if t == nil || t.Data == nil {
		return
	}
	scratchData.Put(t.Data)
	t.Data = nil
	scratchStructs.Put(t)
}
