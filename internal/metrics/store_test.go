package metrics

import (
	"context"
	"testing"

	"sops/internal/core"
	"sops/internal/psys"
)

// TestCaptureStoreMatchesCapture: the tiled capture path must agree
// field-for-field — including the float64 segregation and cluster
// fractions, which share their arithmetic with the dense path — with
// Capture on the same configuration.
func TestCaptureStoreMatchesCapture(t *testing.T) {
	th := DefaultThresholds()
	m := NewMeter(th)

	check := func(cfg *psys.Config, steps uint64) {
		t.Helper()
		want := Capture(cfg, steps, th)
		got := m.CaptureStore(psys.NewTileStoreFrom(cfg), steps)
		if got != want {
			t.Fatalf("store snapshot diverges:\n got %+v\nwant %+v", got, want)
		}
	}

	check(psys.New(), 0)
	check(separatedSpiral(t, 60), 1)
	check(mixedSpiral(t, 60, 3), 2)
	check(mixedSpiral(t, 500, 2), 3)
	check(overflowConfig(t), 4)

	cfg, err := core.Initial(core.LayoutLine, []int{25, 25}, 9)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := core.New(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ch.Run(2000)
		check(ch.Config(), ch.Stats().Steps)
	}
}

// TestCaptureStoreLiveSharded drives a live tile store through sharded
// epochs and compares each capture against the dense path on a
// materialized snapshot — the tiled flood fill and the store's
// atomically maintained counts must stay in lockstep with the reference
// while the configuration (and hence the visited-plane working set)
// evolves in place.
func TestCaptureStoreLiveSharded(t *testing.T) {
	th := DefaultThresholds()
	m := NewMeter(th)
	dense := NewMeter(th)
	cfg, err := core.Initial(core.LayoutSpiral, []int{400, 400}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSharded(cfg, core.Params{Lambda: 4, Gamma: 4, Seed: 5}, core.ShardedOptions{Workers: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Run(context.Background(), 10_000); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := dense.Capture(snap, s.Stats().Steps)
		got := m.CaptureStore(s.Store(), s.Stats().Steps)
		if got != want {
			t.Fatalf("live store capture diverges after %d rounds:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
}

// TestSegregationIndexStoreMatches pins the shared-arithmetic claim at
// the function level across cluster geometries: SegregationIndex reads a
// tile store and a Config bit for bit alike.
func TestSegregationIndexStoreMatches(t *testing.T) {
	for _, cfg := range []*psys.Config{
		psys.New(),
		separatedSpiral(t, 80),
		mixedSpiral(t, 80, 2),
		mixedSpiral(t, 33, 4),
		overflowConfig(t),
	} {
		if got, want := SegregationIndex(psys.NewTileStoreFrom(cfg)), SegregationIndex(cfg); got != want {
			t.Fatalf("segregation diverges: store %v, dense %v (n=%d)", got, want, cfg.N())
		}
	}
}
