package sops

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"sops/internal/failfs"
)

// TestWriteCheckpointRestoreFile: a System restored from a checkpoint file
// continues the exact trajectory of the original.
func TestWriteCheckpointRestoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.ckpt")
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunSteps(40_000)
	if err := sys.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored system violates invariants: %v", err)
	}
	sys.RunSteps(40_000)
	restored.RunSteps(40_000)
	if sys.Metrics() != restored.Metrics() {
		t.Fatal("restored system diverged from the original")
	}
}

// TestAutoCheckpoint: Run writes checkpoints on its configured
// interval, and a System resumed from the mid-run checkpoint finishes on
// the same trajectory as the uninterrupted run.
func TestAutoCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.ckpt")
	sys, err := New(Options{Counts: []int{8, 8}, Lambda: 3, Gamma: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetAutoCheckpoint(path, 10_000)
	if _, err := sys.Run(context.Background(), RunSpec{Steps: 25_000}); err != nil {
		t.Fatal(err)
	}
	// The final interval flush makes the file current with the live System.
	restored, err := RestoreFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 25_000 {
		t.Fatalf("checkpoint holds %d steps, want 25000", restored.Steps())
	}
	restored.RunSteps(25_000)
	sys.SetAutoCheckpoint("", 0)
	sys.RunSteps(25_000)
	if sys.Metrics() != restored.Metrics() {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
}

// renameCounter is a passthrough filesystem that counts the atomic
// renames landing on one path — one per sealed checkpoint write.
type renameCounter struct {
	failfs.FS
	path string
	n    atomic.Int64
}

func (c *renameCounter) Rename(oldpath, newpath string) error {
	if newpath == c.path {
		c.n.Add(1)
	}
	return c.FS.Rename(oldpath, newpath)
}

// TestAutoCheckpointCadence: a sampled run writes its auto-checkpoint at
// the absolute multiples of the interval, not at every sample boundary
// nor once per Run, and the stopping step is not written twice — 10⁶
// steps sampled every 10⁴ with a 10⁵ interval seal exactly 10
// checkpoints. A run stopping off the cadence adds exactly two writes:
// one at the interval it crosses, one at its stopping step. Both engines
// keep the rule; the sharded leg has enough particles for two bands.
func TestAutoCheckpointCadence(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cadence.ckpt")
			fs := &renameCounter{FS: failfs.Get(), path: path}
			defer failfs.Swap(fs)()

			sys, err := New(Options{Counts: []int{200, 200}, Lambda: 4, Gamma: 4, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			sys.SetAutoCheckpoint(path, 100_000)
			samples := 0
			spec := RunSpec{Steps: 1_000_000, SampleEvery: 10_000, Workers: workers, Observer: func(Snapshot) bool {
				samples++
				return true
			}}
			if _, err := sys.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			if samples != 100 {
				t.Fatalf("observer fired %d times, want 100", samples)
			}
			if got := fs.n.Load(); got != 10 {
				t.Fatalf("1e6 steps with a 1e5 interval wrote %d checkpoints, want 10", got)
			}

			spec.Steps = 150_000 // crosses 1.1e6, stops at 1.15e6
			if _, err := sys.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			if got := fs.n.Load(); got != 12 {
				t.Fatalf("continuation wrote %d checkpoints in total, want 12", got)
			}
			restored, err := RestoreFile(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Steps() != 1_150_000 {
				t.Fatalf("checkpoint holds %d steps, want 1150000", restored.Steps())
			}
			if !restored.Config().Equal(sys.Config()) {
				t.Fatal("checkpoint configuration differs from the System's")
			}
		})
	}
}

// TestRestoreFileErrors: missing and corrupt checkpoint files report
// errors rather than half-built Systems.
func TestRestoreFileErrors(t *testing.T) {
	if _, err := RestoreFile(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(bad, nil); err == nil {
		t.Fatal("corrupt file accepted")
	}
}
