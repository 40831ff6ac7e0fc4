package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"sops"
	"sops/internal/core"
	"sops/internal/metrics"
	"sops/internal/psys"
	"sops/internal/rng"
	"sops/internal/telemetry"
)

// The sharded-bulk workload runs the multicore executor on a large system
// with sparse sampling and no checkpoints, so the tile store and worker
// kernel dominate and per-sample metrics and durability almost vanish.
const (
	shN           = 100_000
	shSteps       = 5_000_000
	shSampleEvery = 2_500_000
	shInputs      = 8
)

type shPass struct {
	setup, wall     []time.Duration
	rates, accRates []float64
	steps, accepted uint64
	imbalance       []float64
	speedup         []float64
	serialNs        []float64
	serialAccept    float64
	lastRun         time.Duration // Sharded.Run time of the latest traced episode
	mem             memDelta
}

func (b *bench) shardedBulk() error {
	untraced, traced := b.passes()
	base, err := b.shPass(untraced, nil)
	if err != nil {
		return err
	}
	e := b.res.e2e
	b.res.setup(base.setup)
	e["steps_per_s"] = median(base.rates)
	e["accepted_per_s"] = median(base.accRates)
	b.res.jobLatencies(base.wall, serialRate(base.wall))
	if !b.traced {
		return nil
	}

	b.tr = newTracer()
	tr := b.tr
	p, err := b.shPass(traced, tr)
	if err != nil {
		return err
	}
	steps, eps := float64(p.steps), float64(len(p.wall))
	run := tr.total("sharded.run")
	l := b.res.layer
	l["core.ns_per_step"] = median(p.serialNs)
	l["core.busy_frac"] = run.Seconds() / sum(p.wall).Seconds()
	l["core.accept_ratio"] = p.serialAccept
	l["sharded.lift_ms"] = median(tr.durations("sharded.lift"))
	l["sharded.ns_per_step"] = float64(run.Nanoseconds()) / steps
	l["sharded.fold_ms"] = median(tr.durations("sharded.fold"))
	l["sharded.accept_ratio"] = float64(p.accepted) / steps
	l["sharded.band_imbalance"] = median(p.imbalance)
	l["sharded.speedup_vs_serial"] = median(p.speedup)
	l["metrics.capture_us"] = 1000 * median(tr.durations("metrics.capture"))
	l["metrics.capture_store_ms"] = median(tr.durations("metrics.capture_store"))
	l["go.alloc_bytes_per_mstep"] = float64(p.mem.alloc) / (steps / 1e6)
	l["go.gc_pause_ms"] = float64(p.mem.pauseNs) / 1e6 / eps
	l["trace.overhead_frac"] = overhead(median(base.rates), median(p.rates))
	b.res.note("sharded runs use %d workers; speedup_vs_serial is Sharded.Run against core.Chain.Run on the same start and %d steps", b.nproc, shSteps)
	return nil
}

// shPass runs episodes for d of wall time (at least one). An untraced
// episode is one System.Run with Workers = nproc. A traced episode makes
// the calls that run makes — lift into a Sharded executor, run between
// sample boundaries, CaptureStore at each, fold back with Snapshot — with
// a span around each, and times the serial kernel once, on the first
// episode's start.
func (b *bench) shPass(d time.Duration, tr *tracer) (*shPass, error) {
	p := &shPass{}
	deadline := time.Now().Add(d)
	for i := uint64(0); i == 0 || time.Now().Before(deadline); i++ {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		seed := b.inputSeed(i % shInputs)
		// Each episode starts from a collected heap returned to the
		// system, so that no episode's garbage is collected inside the
		// next one's timing.
		debug.FreeOSMemory()
		root := tr.begin("episode", 0)
		t0 := time.Now()
		sp := tr.begin("core.new", root)
		sys, err := sops.New(sops.Options{Counts: sops.Bichromatic(shN), Lambda: 4, Gamma: 4, Seed: seed})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
		census := colorCensus(sys.Config())

		var (
			st    core.Stats
			final *psys.Config
			wall  time.Duration
		)
		if tr == nil {
			t1 := time.Now()
			_, err = sys.Run(b.ctx, sops.RunSpec{
				Steps:       shSteps,
				SampleEvery: shSampleEvery,
				Workers:     b.nproc,
				Observer:    func(sops.Snapshot) bool { return true },
			})
			wall = time.Since(t1)
			st, final = sys.Stats(), sys.Config()
		} else {
			start := sys.Snapshot()
			st, final, wall, err = b.shTracedEpisode(p, tr, root, sys)
			if err == nil && p.serialNs == nil {
				b.shSerial(p, tr, sys, start)
			}
		}
		tr.end(root)
		b.res.op(err)
		if err != nil {
			continue
		}
		p.wall = append(p.wall, wall)
		p.rates = append(p.rates, rate(float64(st.Steps), wall))
		p.accRates = append(p.accRates, rate(float64(st.Moves+st.Swaps), wall))
		p.steps += st.Steps
		p.accepted += st.Moves + st.Swaps

		r := b.res
		r.check(st.Steps == shSteps, "sharded-bulk input %d: performed %d steps, want %d", seed, st.Steps, shSteps)
		err = final.CheckInvariants()
		r.check(err == nil, "sharded-bulk input %d: %v", seed, err)
		got := colorCensus(final)
		r.check(got == census, "sharded-bulk input %d: color census %v, started with %v", seed, got, census)
		if tr != nil {
			meter := metrics.NewMeter(metrics.DefaultThresholds())
			for k := 0; k < 4; k++ {
				s := tr.begin("metrics.capture", 0)
				meter.Capture(final, st.Steps)
				tr.end(s)
			}
		}
	}
	return p, nil
}

func (b *bench) shTracedEpisode(p *shPass, tr *tracer, root int, sys *sops.System) (core.Stats, *psys.Config, time.Duration, error) {
	model, err := core.LookupModel(sys.Model())
	if err != nil {
		return core.Stats{}, nil, 0, err
	}
	p.mem.start()
	t1 := time.Now()
	sp := tr.begin("sharded.lift", root)
	sh, err := core.NewShardedWithModel(sys.Snapshot(), sys.Params(), model, sys.Couplings(), core.ShardedOptions{
		Workers: b.nproc,
		Seed:    rng.SeedAt(sys.Params().Seed, 0),
	})
	tr.end(sp)
	if err != nil {
		return core.Stats{}, nil, 0, err
	}
	ps := telemetry.NewProbeSet(telemetry.NewProbe(), b.nproc)
	probes := make([]core.Probe, b.nproc)
	for i := range probes {
		probes[i] = ps.Worker(i)
	}
	if err := sh.SetWorkerProbes(probes); err != nil {
		return core.Stats{}, nil, 0, err
	}
	meter := metrics.NewMeter(metrics.DefaultThresholds())
	var done uint64
	p.lastRun = 0
	for done < shSteps {
		batch := shSampleEvery - done%shSampleEvery
		if shSteps-done < batch {
			batch = shSteps - done
		}
		sp := tr.begin("sharded.run", root)
		n, err := sh.Run(b.ctx, batch)
		p.lastRun += tr.end(sp)
		done += n
		if err != nil {
			return core.Stats{}, nil, 0, err
		}
		sp = tr.begin("metrics.capture_store", root)
		meter.CaptureStore(sh.Store(), done)
		tr.end(sp)
	}
	sp = tr.begin("sharded.fold", root)
	final, err := sh.Snapshot()
	tr.end(sp)
	wall := time.Since(t1)
	p.mem.stop()
	if err != nil {
		return core.Stats{}, nil, 0, err
	}
	p.imbalance = append(p.imbalance, ps.Imbalance())
	return sh.Stats(), final, wall, nil
}

// shSerial runs the serial kernel from the episode's start for the same
// number of steps: the single-threaded baseline of speedup_vs_serial.
func (b *bench) shSerial(p *shPass, tr *tracer, sys *sops.System, start *psys.Config) {
	model, err := core.LookupModel(sys.Model())
	if err != nil {
		b.res.op(err)
		return
	}
	chain, err := core.NewWithModel(start, sys.Params(), model, sys.Couplings())
	if err != nil {
		b.res.op(fmt.Errorf("serial baseline: %w", err))
		return
	}
	sp := tr.begin("core.run", 0)
	chain.Run(shSteps)
	serial := tr.end(sp)
	st := chain.Stats()
	p.serialNs = append(p.serialNs, float64(serial.Nanoseconds())/float64(st.Steps))
	p.serialAccept = float64(st.Moves+st.Swaps) / float64(st.Steps)
	p.speedup = append(p.speedup, serial.Seconds()/p.lastRun.Seconds())
}

// colorCensus counts particles per color; chain M conserves it.
func colorCensus(cfg *psys.Config) [psys.MaxColors]int {
	var c [psys.MaxColors]int
	for i := 0; i < cfg.NumColors(); i++ {
		c[i] = cfg.ColorCount(psys.Color(i))
	}
	return c
}

func sum(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t
}
