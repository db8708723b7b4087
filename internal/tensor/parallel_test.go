package tensor

import (
	"errors"
	"testing"
)

// TestParallelFor exercises the worker pool helper directly: completeness,
// inline fallback, and first-error propagation.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 4, 64} {
		hits := make([]int32, 100)
		err := ParallelFor(len(hits), workers, func(i int) error {
			hits[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
	boom := errors.New("boom")
	err := ParallelFor(1000, 8, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected injected error, got %v", err)
	}
	if err := ParallelFor(0, 8, func(int) error { return boom }); err != nil {
		t.Fatalf("empty range should not run items: %v", err)
	}
}
