package metrics

import (
	"math/rand"
	"testing"

	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
)

// TestMeterMatchesCapture: Meter.Capture must agree field-for-field with the
// package-level Capture on a variety of configurations, including across
// repeated captures of an evolving chain (exercising the memo and scratch
// reuse).
func TestMeterMatchesCapture(t *testing.T) {
	th := DefaultThresholds()
	m := NewMeter(th)

	check := func(cfg *psys.Config, steps uint64) {
		t.Helper()
		want := Capture(cfg, steps, th)
		got := m.Capture(cfg, steps)
		if got != want {
			t.Fatalf("meter snapshot diverges:\n got %+v\nwant %+v", got, want)
		}
	}

	check(psys.New(), 0)

	one := buildConfig(t, []psys.Particle{{Pos: lattice.Point{}, Color: 0}})
	check(one, 1)

	check(separatedSpiral(t, 60), 2)
	check(mixedSpiral(t, 60, 3), 3)
	check(overflowConfig(t), 4)

	cfg, err := core.Initial(core.LayoutLine, []int{25, 25}, 9)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.New(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ch.Run(2000)
		check(ch.Config(), ch.Stats().Steps)
	}

	// Changing n (fresh configs of varying sizes) must invalidate the memo.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		check(separatedSpiral(t, 10+r.Intn(80)), uint64(i))
	}
}

// overflowConfig builds a configuration whose two clusters lie about 10⁶
// cells apart, so the remote one spills out of the dense window into the
// overflow map — a shape no chain produces, which the capture must still
// measure exactly.
func overflowConfig(t *testing.T) *psys.Config {
	t.Helper()
	far := lattice.Point{Q: 1_000_000, R: 3}
	cfg := buildConfig(t, []psys.Particle{
		{Pos: lattice.Point{}, Color: 0},
		{Pos: lattice.Point{Q: 1}, Color: 1},
		{Pos: far, Color: 0},
		{Pos: far.Neighbor(0), Color: 0},
		{Pos: far.Neighbor(1), Color: 0},
	})
	if cfg.DenseOnly() {
		t.Fatal("remote cluster stayed in the dense window")
	}
	return cfg
}

// mixedSpiral builds an n-particle spiral with colors assigned round-robin
// over k classes — compact and integrated.
func mixedSpiral(t *testing.T, n, k int) *psys.Config {
	t.Helper()
	cfg := psys.New()
	for i, p := range lattice.Spiral(lattice.Point{}, n) {
		if err := cfg.Place(p, psys.Color(i%k)); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// TestMeterCaptureAllocs: at steady state (fixed n, warmed scratch) the
// Meter's snapshot path performs zero heap allocations.
func TestMeterCaptureAllocs(t *testing.T) {
	th := DefaultThresholds()
	m := NewMeter(th)
	cfg := separatedSpiral(t, 100)
	if avg := testing.AllocsPerRun(100, func() {
		snap := m.Capture(cfg, 0)
		if snap.N != 100 {
			t.Fatal("bad snapshot")
		}
	}); avg != 0 {
		t.Fatalf("Meter.Capture allocates %v times per run at steady state", avg)
	}
}
