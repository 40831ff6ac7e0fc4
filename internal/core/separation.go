package core

import (
	"math"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// separationModel is the paper's Algorithm 1 — the heterogeneous
// separation/integration dynamics — re-expressed as the first registered
// Model. Its Hamiltonian is E(σ) = −e(σ)·ln λ − a(σ)·ln γ over couplings
// (λ, γ); its validity predicate is Degree(l) ≠ 5 ∧ (Property 4 ∨
// Property 5), delegated to the psys kernel tables. The executors run it
// through the same kernel as every other model; the committed golden
// trajectories pin that kernel to the paper's step for step.
//
// The methods have pointer receivers and compute their popcounts in
// place, so a kernel call through the Model interface lands directly in
// the method body: no receiver-copy wrapper, no further call.
type separationModel struct{}

// Separation is the registered instance of the paper's dynamics.
var Separation Model = &separationModel{}

func (*separationModel) Name() string { return "separation" }

func (*separationModel) Couplings() []Coupling {
	return []Coupling{
		{Name: "lambda", Default: 4},
		{Name: "gamma", Default: 4},
	}
}

func (*separationModel) NumExponents() int { return 2 }

func (*separationModel) Valid(dir lattice.Direction, occ uint8) bool {
	return psys.MoveOK(dir, occ)
}

// MoveExponents returns dλ = e′ − e and dγ = e′_i − e_i: the change in
// P's neighbors and in its same-color neighbors, each within ±5.
func (*separationModel) MoveExponents(g psys.PairGather) Exponents {
	nl, nlp := g.DegreeCounts()
	c, _ := g.LColor()
	cl, clp := g.ColorCounts(c)
	return Exponents{int8(nlp - nl), int8(clp - cl)}
}

// SwapExponents returns the change in same-color adjacencies when P and Q
// exchange positions, within ±10: exactly −2 for a same-colored pair,
// whose only changed adjacencies are their own edge counted once from
// each side. Degrees are swap-invariant, so dλ = 0.
func (*separationModel) SwapExponents(g psys.PairGather) (Exponents, bool) {
	ci, _ := g.LColor()
	cj, _ := g.LpColor()
	if ci == cj {
		return Exponents{0, -2}, true
	}
	il, ilp := g.ColorCounts(ci)
	jl, jlp := g.ColorCounts(cj)
	return Exponents{0, int8(ilp - il + jl - jlp)}, true
}

func (*separationModel) Energy(v psys.View, coup []float64) float64 {
	return -float64(v.Edges())*math.Log(coup[0]) - float64(v.HomEdges())*math.Log(coup[1])
}

func (*separationModel) ObservableNames() []string {
	return []string{"homEdgeFrac"}
}

func (*separationModel) Observe(v psys.View, coup []float64, out []float64) {
	out[0] = 0
	if e := v.Edges(); e > 0 {
		out[0] = float64(v.HomEdges()) / float64(e)
	}
}

func init() { RegisterModel(Separation) }
