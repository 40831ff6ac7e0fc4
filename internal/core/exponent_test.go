package core

import (
	"testing"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// TestExponentBoundsAudit verifies the separation model's exponents and
// the table sizing the kernel relies on rather than assuming them: along
// long randomized runs across compression, separation, integration and
// expansion regimes, every reachable proposal's exponents equal the
// readable reference (Degree, ColorDegree and their Excluding forms), move
// exponents stay within ±5 and swap exponents within ±10, well inside the
// maxExp = 12 headroom of the threshold tables. The audit
// sweeps all (particle, direction) pairs of the live configuration at a
// fixed cadence, so the asserted bound covers every proposal the chain
// could have drawn at those states, not just the ones it happened to draw.
func TestExponentBoundsAudit(t *testing.T) {
	cases := []struct {
		name           string
		counts         []int
		lambda, gamma  float64
		seed           uint64
		steps, cadence uint64
	}{
		{"compress-separate", []int{40, 40}, 4, 4, 1, 40_000, 2_000},
		{"expand", []int{30, 30}, 0.5, 0.5, 2, 40_000, 2_000},
		{"integrate", []int{30, 30}, 4, 81.0 / 79.0, 3, 40_000, 2_000},
		{"multicolor", []int{20, 20, 20, 20}, 3, 6, 4, 40_000, 2_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Initial(LayoutLine, tc.counts, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := New(cfg, Params{Lambda: tc.lambda, Gamma: tc.gamma, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			audits := 0
			for done := uint64(0); done < tc.steps; done += tc.cadence {
				ch.Run(tc.cadence)
				c := ch.Config()
				for _, pt := range c.Particles() {
					for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
						l, lp := pt.Pos, pt.Pos.Neighbor(d)
						g := c.GatherPair(l, d)
						ci, _ := g.LColor()
						if cj, occupied := g.LpColor(); occupied {
							dE, _ := Separation.SwapExponents(g)
							want := c.ColorDegreeExcluding(lp, l, ci) - c.ColorDegree(l, ci) +
								c.ColorDegreeExcluding(l, lp, cj) - c.ColorDegree(lp, cj)
							if dE[0] != 0 || int(dE[1]) != want {
								t.Fatalf("step %d: swap exponents %v at %v dir %v, reference (0,%d)", done, dE[:2], l, d, want)
							}
							if want < -10 || want > 10 {
								t.Fatalf("step %d: swap exponent %d at %v dir %v outside ±10", done, want, l, d)
							}
						} else {
							dE := Separation.MoveExponents(g)
							dl := c.DegreeExcluding(lp, l) - c.Degree(l)
							dg := c.ColorDegreeExcluding(lp, l, ci) - c.ColorDegree(l, ci)
							if int(dE[0]) != dl || int(dE[1]) != dg {
								t.Fatalf("step %d: move exponents %v at %v dir %v, reference (%d,%d)", done, dE[:2], l, d, dl, dg)
							}
							if dl < -5 || dl > 5 || dg < -5 || dg > 5 {
								t.Fatalf("step %d: move exponents (%d,%d) at %v dir %v outside ±5", done, dl, dg, l, d)
							}
						}
						audits++
					}
				}
			}
			if audits == 0 {
				t.Fatal("audit swept no proposals")
			}
		})
	}
}

// TestSwapExponentSameColor pins the same-color case of the separation
// model's swap exponents: exchanging equal colors always has exponent −2 (the pair's own
// edge, counted once from each side), matching the documented γ^{−2}
// acceptance probability of no-op swaps.
func TestSwapExponentSameColor(t *testing.T) {
	c := psys.New()
	for q := 0; q < 4; q++ {
		if err := c.Place(lattice.Point{Q: q}, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := c.GatherPair(lattice.Point{Q: 1}, 0)
	if dE, ok := Separation.SwapExponents(g); !ok || dE[0] != 0 || dE[1] != -2 {
		t.Fatalf("same-color swap exponents %v, want [0 -2]", dE[:2])
	}
}
