package core

import (
	"testing"
)

// TestChainStepAllocs: at steady state — chain burned in, storage window and
// position index warmed — Chain.Step performs zero heap allocations,
// whatever the proposal outcome and whichever registered model it runs.
// This is the tentpole property of the dense occupancy store and of the
// Model seam: the hot path is array loads and one interface call.
func TestChainStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		model  Model
		counts []int
		coup   []float64
	}{
		{Separation, []int{50, 50}, []float64{4, 4}},
		{Alignment, []int{34, 33, 33}, []float64{4, 6, 2}},
		// The last stage boundary (7·29k) falls inside the timed steps,
		// so the table rebuild is held to zero allocations too.
		{Anneal, []int{50, 50}, []float64{4, 16, 8, 29_000}},
	} {
		t.Run(tc.model.Name(), func(t *testing.T) {
			cfg, err := Initial(LayoutLine, tc.counts, 1)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := NewWithModel(cfg, Params{Seed: 1}, tc.model, tc.coup)
			if err != nil {
				t.Fatal(err)
			}
			ch.Run(200_000) // burn in: compress and settle the window
			if avg := testing.AllocsPerRun(5000, func() {
				ch.Step()
			}); avg != 0 {
				t.Fatalf("Chain.Step allocates %v times per step at steady state", avg)
			}
		})
	}
}
