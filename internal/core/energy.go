package core

import (
	"math"

	"sops/internal/psys"
)

// Energy returns the Hamiltonian value the chain minimizes in the
// stochastic approach (§1): E(σ) = −e(σ)·ln λ − a(σ)·ln γ, so that the
// stationary distribution is the Gibbs measure π(σ) ∝ exp(−E(σ)).
// Lower energy means more edges (compression) and more homogeneous edges
// (separation) when λ, γ > 1.
func Energy(cfg *psys.Config, params Params) float64 {
	return -float64(cfg.Edges())*math.Log(params.Lambda) -
		float64(cfg.HomEdges())*math.Log(params.Gamma)
}

// Energy returns the Hamiltonian of the chain's current configuration
// under its model, at the effective couplings in force.
func (c *Chain) Energy() float64 { return c.model.Energy(c.cfg, c.coupNow) }

// Energy returns the Hamiltonian of the executor's current configuration
// under its model, at the effective couplings in force.
func (s *Sharded) Energy() float64 { return s.model.Energy(s.store, s.coupNow) }
