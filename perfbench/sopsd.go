package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sops"
	"sops/internal/failfs"
	"sops/internal/jobs"
)

// The sopsd-mixed workload drives the job daemon over loopback HTTP as a
// closed loop: nproc clients each submit a job, follow it over SSE to its
// terminal frame, and only then submit the next; the daemon executes one
// job at a time. One job in ten is a
// Figure-3 style sweep; the rest are small run jobs under the manager's
// default auto-checkpoint, with a trace cadence finer than it.
const (
	sdRunN          = 200
	sdRunSteps      = 500_000
	sdRunTraceEvery = 50_000
	sdSweepN        = 100
	sdSweepSteps    = 100_000
	sdSSEInterval   = "5ms"
	// sdCkptEvery is the manager's documented default CheckpointEvery,
	// which the workload leaves in force, and sdTraceCapacity its default
	// TraceCapacity, which the in-process re-runs of run jobs copy.
	sdCkptEvery     = 100_000
	sdTraceCapacity = 256
	sdSetupReps     = 25
	sdSetupGap      = 80 * time.Millisecond
	// calibReps is how often the traced pass times each layer call it
	// makes directly on a run job's final state, to take the median.
	calibReps = 16
	// sdExecutors is the manager's worker count. One job executes at a
	// time, so the nproc clients always keep a queue (jobs.queue_wait_ms
	// is part of every latency), and the daemon's chain work never needs
	// every core at once, which keeps the workload steady on a host whose
	// cores are shared.
	sdExecutors = 1
)

var (
	sdLambdas = []float64{1.5, 2.5, 4}
	sdGammas  = []float64{1.02, 2, 4}
	// sdBlock is one run job per sweep-grid point plus one sweep.
	sdBlock = len(sdLambdas)*len(sdGammas) + 1
)

type sdJob struct {
	seed     uint64
	spec     jobs.Spec
	latency  time.Duration
	seen     time.Time // when the client parsed the terminal frame
	sseBytes int
	final    jobs.Status
	err      error
	// steps is the chain work the job did; accepted, known for run jobs
	// only, comes from re-running the job in process (see sdCheck).
	steps, accepted uint64
	// What the in-process re-run of a run job measured: the samples its
	// trace recorder took, and, in the traced pass, the calibrated cost of
	// a sample offer and the sizes of the job's .sbt trace and checkpoint.
	captures              int
	offerNs               float64
	traceBytes, ckptBytes int
}

type sdPass struct {
	jobs     []*sdJob
	wall     time.Duration
	refused  int
	fs       counts
	mem      memDelta
	jobsRate float64
}

// sdSpec generates client c's k-th job from the workload seed. Each block
// of sdBlock jobs holds, in a seeded order, one sweep and one run job at
// each (λ, γ) of the sweep grid, so every run has the same mix of phases
// and only the order and the chain seeds change with the workload seed.
func (b *bench) sdSpec(c, k int) (uint64, jobs.Spec) {
	seed := b.inputSeed(uint64(c)<<32 | uint64(k))
	block := uint64(k / sdBlock)
	perm := rand.New(rand.NewSource(int64(b.inputSeed(1<<62 | uint64(c)<<32 | block)))).Perm(sdBlock)
	slot := perm[k%sdBlock]
	if slot == sdBlock-1 {
		return seed, jobs.Spec{Name: "sweep", Sweep: &sops.SweepSpec{
			Lambdas: sdLambdas, Gammas: sdGammas, Seed: seed,
			Counts: sops.Bichromatic(sdSweepN), Steps: sdSweepSteps,
		}}
	}
	return seed, jobs.Spec{Name: "run", Run: &jobs.RunJob{
		Options: sops.Options{
			Counts: sops.Bichromatic(sdRunN),
			Lambda: sdLambdas[slot/len(sdGammas)], Gamma: sdGammas[slot%len(sdGammas)],
			Seed: seed,
		},
		Steps:       sdRunSteps,
		SampleEvery: sdRunTraceEvery,
	}}
}

// daemon is a jobs.Manager serving its HTTP API on a loopback port, as
// cmd/sopsd assembles it.
type daemon struct {
	m    *jobs.Manager
	srv  *http.Server
	url  string
	done chan error
}

func openDaemon(dir string, client *http.Client) (*daemon, error) {
	m, err := jobs.Open(jobs.Config{Dir: dir, Workers: sdExecutors})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", jobs.NewServer(m).Handler())
	d := &daemon{
		m:    m,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	// Ready once the API answers a listing.
	resp, err := client.Get(d.url + "/v1/jobs")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/jobs: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.srv.Close()
	<-d.done
	d.m.Close()
}

func (b *bench) sopsdMixed() error {
	transport := &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Set-ups are timed before any job has run, in the same quiet process
	// state every run starts from. A daemon start takes well under a
	// millisecond, so the repetitions are spread over a couple of seconds:
	// a short spell of contention on a shared host then moves only a few
	// of them, not the median.
	var setup []time.Duration
	for i := 0; i < sdSetupReps; i++ {
		if i > 0 {
			time.Sleep(sdSetupGap)
		}
		t0 := time.Now()
		d, err := openDaemon(filepath.Join(b.work, fmt.Sprintf("setup-%d", i)), client)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0))
		d.close()
	}
	untraced, traced := b.passes()
	base, err := b.sdPass("untraced", untraced, nil, client)
	if err != nil {
		return err
	}
	e := b.res.e2e
	b.res.setup(setup)
	var lat []time.Duration
	var steps, accepted uint64
	for _, j := range base.jobs {
		if j.err == nil {
			lat = append(lat, j.latency)
			steps += j.steps
			accepted += j.accepted
		}
	}
	e["steps_per_s"] = rate(float64(steps), base.wall)
	e["accepted_per_s"] = rate(float64(accepted), base.wall)
	b.res.jobLatencies(lat, rate(float64(len(lat)), base.wall))
	if !b.traced {
		return nil
	}

	b.tr = newTracer()
	p, err := b.sdPass("traced", traced, b.tr, client)
	if err != nil {
		return err
	}
	b.sdLayers(base, p)
	return nil
}

// sdPass runs the closed loop for d of wall time against a fresh daemon,
// then checks every job's outcome.
func (b *bench) sdPass(name string, d time.Duration, tr *tracer, client *http.Client) (*sdPass, error) {
	probe := newFSProbe(failfs.Get(), tr)
	defer failfs.Swap(probe)()
	dm, err := openDaemon(filepath.Join(b.work, "sopsd-"+name), client)
	if err != nil {
		return nil, err
	}
	defer dm.close()

	p := &sdPass{}
	perClient := make([][]*sdJob, b.nproc)
	refused := make([]int, b.nproc)
	before := probe.read()
	if tr != nil {
		p.mem.start()
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && b.ctx.Err() == nil; k++ {
				seed, spec := b.sdSpec(c, k)
				j := &sdJob{seed: seed, spec: spec}
				var wasRefused bool
				if wasRefused, j.err = b.sdFollow(client, dm.url, tr, j); wasRefused {
					refused[c]++
				}
				perClient[c] = append(perClient[c], j)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	if tr != nil {
		p.mem.stop()
	}
	p.fs = probe.read().sub(before)
	done := 0
	for c := range perClient {
		p.jobs = append(p.jobs, perClient[c]...)
		p.refused += refused[c]
	}
	b.sdCheckAll(tr, p.jobs)
	for _, j := range p.jobs {
		if j.err == nil {
			done++
		}
	}
	p.jobsRate = rate(float64(done), p.wall)
	return p, nil
}

// sdFollow submits j and follows its event stream to the terminal frame.
// refused reports a submission the daemon turned away.
func (b *bench) sdFollow(client *http.Client, url string, tr *tracer, j *sdJob) (refused bool, err error) {
	body, err := json.Marshal(&j.spec)
	if err != nil {
		return false, err
	}
	root := tr.begin("job", 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("http.submit", root)
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		tr.end(sp)
		return false, fmt.Errorf("submit: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return true, fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(reply))
	}
	var st jobs.Status
	if err := json.Unmarshal(reply, &st); err != nil {
		return false, fmt.Errorf("submit reply: %w", err)
	}

	sp = tr.begin("http.events", root)
	defer tr.end(sp)
	req, err = http.NewRequestWithContext(b.ctx, http.MethodGet, url+"/v1/jobs/"+st.ID+"/events?interval="+sdSSEInterval, nil)
	if err != nil {
		return false, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return false, fmt.Errorf("events %s: %w", st.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events %s: %s", st.ID, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		j.sseBytes += len(line)
		if err != nil {
			return false, fmt.Errorf("events %s: stream ended before a terminal frame: %w", st.ID, err)
		}
		data, isData := bytes.CutPrefix(line, []byte("data: "))
		if !isData {
			continue
		}
		var frame struct {
			State jobs.State `json:"state"`
		}
		if err := json.Unmarshal(data, &frame); err != nil {
			return false, fmt.Errorf("events %s: %w", st.ID, err)
		}
		if !frame.State.Terminal() {
			continue
		}
		j.seen = time.Now()
		j.latency = j.seen.Sub(t0)
		if err := json.Unmarshal(data, &j.final); err != nil {
			return false, fmt.Errorf("events %s: %w", st.ID, err)
		}
		// Drain the stream's end so the connection is reused.
		n, _ := io.Copy(io.Discard, r)
		j.sseBytes += int(n)
		if j.final.State != jobs.StateDone {
			return false, fmt.Errorf("job %s ended %s: %s", st.ID, j.final.State, j.final.Error)
		}
		return false, nil
	}
}

// sdCheckAll checks the jobs on nproc goroutines.
func (b *bench) sdCheckAll(tr *tracer, all []*sdJob) {
	next := make(chan *sdJob)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				b.sdCheck(tr, j)
			}
		}()
	}
	for _, j := range all {
		next <- j
	}
	close(next)
	wg.Wait()
}

// sdCheck counts the job as an operation and checks its result: a sweep
// returns its full grid without cell errors, and a run job's result equals
// a direct in-process run of the same spec, with the probe and trace
// recorder the daemon gives a run job. The daemon deletes a finished job's
// checkpoints and its terminal status carries no probe, so the direct run
// is also where a run job's accepted-move count comes from.
func (b *bench) sdCheck(tr *tracer, j *sdJob) {
	r := b.res
	r.op(j.err)
	if j.err != nil {
		return
	}
	res := j.final.Result
	if sw := j.spec.Sweep; sw != nil {
		cells := len(sw.Lambdas) * len(sw.Gammas)
		j.steps = uint64(cells) * sw.Steps
		bad := res == nil || len(res.Cells) != cells
		if !bad {
			for _, c := range res.Cells {
				bad = bad || c.Error != "" || c.Snap == nil
			}
		}
		r.check(!bad, "sweep job %s: incomplete or failed grid", j.final.ID)
		return
	}
	rj := j.spec.Run
	rec := sops.NewRecorder(sdTraceCapacity, rj.SampleEvery)
	sp := tr.begin("core.run", 0)
	sys, err := sops.New(rj.Options)
	if err == nil {
		_, err = sys.Run(b.ctx, sops.RunSpec{
			Steps:       rj.Steps,
			SampleEvery: rj.SampleEvery,
			Telemetry:   &sops.Telemetry{Probe: sops.NewProbe(), Recorder: rec},
		})
	}
	tr.end(sp)
	if err != nil {
		r.check(false, "run job %s: direct run: %v", j.final.ID, err)
		return
	}
	st := sys.Stats()
	j.steps, j.accepted = st.Steps, st.Moves+st.Swaps
	j.captures = rec.Len() + int(rec.Dropped())
	if tr != nil {
		b.sdCalibrate(tr, j, sys, rec)
	}
	sp = tr.begin("metrics.capture", 0)
	snap := sys.Metrics()
	tr.end(sp)
	want, err1 := json.Marshal(snap)
	var got []byte
	var err2 error
	if res != nil && res.Snap != nil {
		got, err2 = json.Marshal(res.Snap)
	}
	r.check(err1 == nil && err2 == nil && bytes.Equal(got, want),
		"run job %s: daemon result %s differs from direct run %s", j.final.ID, got, want)
}

// sdCalibrate times, on a run job's final state, the layer calls that
// System.Run makes where no span can reach: a trace Recorder offer and the
// checkpoint encode behind WriteCheckpointTo. It also encodes the job's
// trace as the .sbt that cmd/sops would write (the daemon streams the
// samples instead), in memory, so that the file I/O of the checks stays
// out of the seal and fs spans.
func (b *bench) sdCalibrate(tr *tracer, j *sdJob, sys *sops.System, rec *sops.Recorder) {
	const offers = 1000
	scratch := sops.NewRecorder(offers, sdRunTraceEvery)
	snap, energy := sys.Metrics(), sys.Energy()
	s := tr.begin("telemetry.offer_x1000", 0)
	for k := uint64(1); k <= offers; k++ {
		snap.Steps = k * sdRunTraceEvery
		scratch.Offer(sops.TraceSample{Snap: snap, Energy: energy})
	}
	j.offerNs = float64(tr.end(s).Nanoseconds()) / offers
	s = tr.begin("telemetry.flush", 0)
	j.traceBytes = len(rec.EncodeBinary())
	tr.end(s)
	var buf bytes.Buffer
	var err error
	for k := 0; k < calibReps && err == nil; k++ {
		buf.Reset()
		s := tr.begin("snapbin.encode", 0)
		err = sys.WriteCheckpointTo(&buf)
		tr.end(s)
	}
	b.res.check(err == nil, "run job %s: WriteCheckpointTo: %v", j.final.ID, err)
	j.ckptBytes = buf.Len()
}

func (b *bench) sdLayers(base, p *sdPass) {
	tr := b.tr
	var (
		queue, run, lag     []float64
		steps, accepted     uint64
		runSteps            uint64
		runTime, sweepTime  time.Duration
		cells, retries, sse int
		done, runJobs       int
		captures            int
		offerNs             []float64
		traceBytes, ckpt    []float64
	)
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		f := j.final
		done++
		queue = append(queue, ms(f.Started.Sub(f.Created)))
		run = append(run, ms(f.Finished.Sub(f.Started)))
		lag = append(lag, ms(j.seen.Sub(f.Finished)))
		steps += j.steps
		runTime += f.Finished.Sub(f.Started)
		retries += f.Attempts + f.Requeues
		sse += j.sseBytes
		if j.spec.Sweep != nil {
			cells += len(f.Result.Cells)
			sweepTime += f.Finished.Sub(f.Started)
		} else {
			runJobs++
			runSteps += j.steps
			accepted += j.accepted
			captures += j.captures
			offerNs = append(offerNs, j.offerNs)
			traceBytes = append(traceBytes, float64(j.traceBytes))
			ckpt = append(ckpt, float64(j.ckptBytes))
		}
	}
	var nsPerStep []float64
	for _, s := range tr.closed() {
		if s.Name == "core.run" {
			nsPerStep = append(nsPerStep, float64(s.dur().Nanoseconds())/sdRunSteps)
		}
	}
	n := float64(done)
	l := b.res.layer
	l["core.ns_per_step"] = median(nsPerStep)
	// The share of job run time the kernel accounts for, at the direct
	// runs' cost per step.
	l["core.busy_frac"] = l["core.ns_per_step"] * float64(steps) / float64(runTime.Nanoseconds())
	l["core.accept_ratio"] = float64(accepted) / float64(runSteps)
	l["metrics.capture_us"] = 1000 * median(tr.durations("metrics.capture"))
	l["metrics.captures"] = float64(captures) / float64(runJobs)
	l["telemetry.offer_ns"] = median(offerNs)
	l["telemetry.flush_ms"] = median(tr.durations("telemetry.flush"))
	l["telemetry.trace_bytes"] = median(traceBytes)
	l["snapbin.encode_us"] = 1000 * median(tr.durations("snapbin.encode"))
	l["snapbin.checkpoint_bytes"] = median(ckpt)
	l["seal.write_ms"] = median(tr.durations("seal.write"))
	l["seal.writes_per_mstep"] = float64(p.fs.ckptWrites) / (float64(runSteps) / 1e6)
	l["fs.fsyncs"] = float64(p.fs.fsyncs) / n
	l["fs.fsync_ms"] = median(tr.durations("fs.fsync"))
	l["fs.bytes_written"] = float64(p.fs.bytes) / n
	l["jobs.queue_wait_ms"] = median(queue)
	l["jobs.run_ms"] = median(run)
	l["jobs.fsyncs_per_job"] = float64(p.fs.fsyncs) / n
	l["jobs.retries"] = float64(retries)
	l["http.submit_ms"] = median(tr.durations("http.submit"))
	l["http.terminal_lag_ms"] = median(lag)
	l["http.sse_bytes_per_job"] = float64(sse) / n
	l["http.refused"] = float64(p.refused)
	l["runner.cells_per_s"] = rate(float64(cells), sweepTime)
	l["go.alloc_bytes_per_mstep"] = float64(p.mem.alloc) / (float64(steps) / 1e6)
	l["go.gc_pause_ms"] = float64(p.mem.pauseNs) / 1e6 / n
	l["trace.overhead_frac"] = overhead(base.jobsRate, p.jobsRate)
	b.res.note("seal.writes_per_mstep counts run-job checkpoints: %.4g; the manager's documented cadence (every %d steps) gives %.4g",
		l["seal.writes_per_mstep"], sdCkptEvery, 1e6/float64(sdCkptEvery))
	b.res.note("%d clients, %d jobs in the traced pass (%d run, %d sweep)", b.nproc, done, runJobs, done-runJobs)
}
