package core

import (
	"math"

	"sops/internal/psys"
)

// annealModel is a k-color annealed schedule interpolating compression →
// separation: the kernel is exactly the separation model's (same validity
// predicate, same exponents, same Hamiltonian shape), but the effective γ
// ramps geometrically across stages of the run,
//
//	γ_s = γ^(s / (stages−1)),   s = min(⌊step / stageSteps⌋, stages−1),
//
// so stage 0 runs the pure compression chain of Cannon et al. (γ_eff = 1,
// every swap accepted) and the final stage the full separation dynamics
// at γ. The schedule lets a run compress into a low-perimeter droplet
// before the color bias switches on — escaping the striped metastable
// states that cold starts at large γ fall into.
//
// Effective is a pure function of the nominal couplings and the absolute
// step count, which is what makes the schedule checkpoint-exact: a
// resumed chain (or a sharded worker fleet given its StepOffset)
// recomputes the identical effective γ from the restored step counter,
// with no schedule state to serialize.
//
// The validity predicate, exponents and Hamiltonian are the embedded
// separation model's; the executors pass the scheduled couplings to
// Energy, so the reported energy tracks the stage the run is in.
type annealModel struct{ separationModel }

// Anneal is the registered annealed compression→separation schedule.
var Anneal Model = &annealModel{}

func (*annealModel) Name() string { return "anneal" }

func (*annealModel) Couplings() []Coupling {
	return []Coupling{
		{Name: "lambda", Default: 4},
		{Name: "gamma", Default: 16},
		{Name: "stages", Default: 4, Integer: true},
		{Name: "stageSteps", Default: 200_000, Integer: true},
	}
}

func (*annealModel) Effective(coup []float64, step uint64, eff []float64) uint64 {
	stages := uint64(coup[2])
	stageSteps := uint64(coup[3])
	s := step / stageSteps
	if s >= stages-1 {
		s = stages - 1
	}
	eff[0] = coup[0]
	if stages == 1 {
		eff[1] = coup[1]
	} else {
		eff[1] = math.Pow(coup[1], float64(s)/float64(stages-1))
	}
	if s == stages-1 {
		return math.MaxUint64
	}
	return (s + 1) * stageSteps
}

func (*annealModel) ObservableNames() []string {
	return []string{"gammaEff", "homEdgeFrac"}
}

func (*annealModel) Observe(v psys.View, coup []float64, out []float64) {
	out[0] = coup[1] // executors pass effective couplings
	out[1] = 0
	if e := v.Edges(); e > 0 {
		out[1] = float64(v.HomEdges()) / float64(e)
	}
}

func init() { RegisterModel(Anneal) }
