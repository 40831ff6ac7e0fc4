// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a workload seed for a fixed wall time, checks the
// program's outputs, and prints the workload's end-to-end metrics (--trace
// 0) or its per-layer ledger (--trace 1) as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Preceding lines give the host fingerprint and a readable report. Run it
// through run.sh from the repository root, which builds it from source:
//
//	bash perfbench/run.sh --workload sopsd-mixed --seed 7 --seconds 45 --trace 1
//
// End-to-end numbers come from an untraced pass. A traced run makes the
// same untraced pass over the first half of the time, then a traced pass
// over the second, recording spans around the calls the benchmark makes
// into each layer; the gap between the two passes is trace.overhead_frac.
// Spans are kept in memory and written to .bench_build/spans-*.jsonl when
// the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sops/internal/rng"
)

// runLimit bounds a whole run, well inside the three minutes a run may
// take, so a hung layer fails the run instead of stalling it.
const runLimit = 150 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: sharded-bulk or sopsd-mixed")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 15, "measured wall time in seconds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger from a traced run, 0 the end-to-end metrics")
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	host := fingerprint(work)
	host.Workload, host.Seed, host.Seconds, host.Trace = *workload, *seed, *seconds, *trace
	hj, _ := json.Marshal(host) // plain strings and ints: cannot fail
	fmt.Printf("host %s\nworkload %s: %s\n", hj, wl.name, wl.why)

	// Flush the writeback an earlier run left behind (a sopsd-mixed run
	// creates and deletes thousands of files), so that each run's fsyncs
	// and set-ups start from the same disk state.
	syscall.Sync()

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	b := &bench{
		ctx:    ctx,
		seed:   *seed,
		work:   work,
		nproc:  runtime.NumCPU(),
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		res:    newResult(),
	}
	if err := wl.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.res.e2e["peak_rss_mb"] = peakRSSMB()
	if b.tr != nil {
		path := filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	b.res.print(b.traced)
	return 0
}

// bench is the state one run shares across its passes.
type bench struct {
	ctx    context.Context
	seed   uint64
	work   string
	nproc  int
	window time.Duration
	traced bool
	tr     *tracer // the traced pass's spans; nil until it starts
	res    *result
}

// passes returns the wall time of the untraced pass and, in a traced run,
// of the traced pass that follows it.
func (b *bench) passes() (untraced, traced time.Duration) {
	if !b.traced {
		return b.window, 0
	}
	return b.window / 2, b.window - b.window/2
}

// inputSeed derives the seed of input i from the workload seed.
func (b *bench) inputSeed(i uint64) uint64 { return rng.SeedAt(b.seed, i) }

// result accumulates what a run attempted, what failed, and its metrics.
// op and check may be called from several goroutines.
type result struct {
	mu                sync.Mutex
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	notes             []string
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range layerMetrics {
		r.layer[m.name] = 0
	}
	return r
}

// op counts one attempted operation, failed if err is non-nil.
func (r *result) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check counts one output check.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(traced bool) {
	type row struct {
		name, unit, about string
		v                 float64
	}
	if r.attempted == 0 {
		r.check(false, "no operation was attempted")
	}
	var rows []row
	if traced {
		for _, m := range layerMetrics {
			about := "-> " + m.moves
			if m.flat != "" {
				about += "; flat on " + m.flat
			}
			rows = append(rows, row{m.name, m.unit, about, r.layer[m.name]})
		}
	} else {
		for _, m := range e2eMetrics {
			rows = append(rows, row{m.name, m.unit, m.what, r.e2e[m.name]})
		}
	}
	for i, w := range rows {
		if math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			r.check(false, "metric %s is not finite", w.name)
			rows[i].v = 0
		}
	}
	for i, w := range rows {
		if w.name == "ok_frac" {
			// Counted last, so that it sees every check, the ones above too.
			rows[i].v = float64(r.attempted-r.failed) / float64(r.attempted)
		}
	}
	if traced {
		fmt.Println("per-layer ledger (traced pass; 0 = not on this workload's path or not observable there):")
	} else {
		fmt.Println("end-to-end metrics (untraced pass):")
	}
	metrics := map[string]metricOut{}
	for _, w := range rows {
		metrics[w.name] = metricOut{Value: w.v, Unit: w.unit}
		fmt.Printf("  %-26s %16.6g %-12s %s\n", w.name, w.v, w.unit, w.about)
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  failed_frac = %d/%d\n", r.failed, r.attempted)
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		// Every value was made finite above, so this is a bug.
		panic(err)
	}
	fmt.Println(string(line))
}

// memDelta accumulates allocation and GC pause between paired readings,
// so only the timed sections of a traced pass are charged.
type memDelta struct {
	alloc, pauseNs uint64
	last           runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.last) }

func (m *memDelta) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.alloc += now.TotalAlloc - m.last.TotalAlloc
	m.pauseNs += now.PauseTotalNs - m.last.PauseTotalNs
}

// serialRate is the throughput of one client running jobs back to back,
// taken from the median job time rather than the mean, so that a short
// spell of contention on a shared host moves it no more than job_p50_s.
func serialRate(wall []time.Duration) float64 {
	return 1 / median(secs(wall))
}

// rate returns count per second of d, or 0 for an empty interval.
func rate(count float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return count / d.Seconds()
}

// overhead returns 1 - traced/untraced: the share of throughput tracing costs.
func overhead(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 1 - traced/untraced
}

func secs(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = d.Seconds()
	}
	return out
}

// setup records setup_s, the median of a run's set-up repetitions.
func (r *result) setup(reps []time.Duration) {
	s := secs(reps)
	r.e2e["setup_s"] = median(s)
	if len(s) >= 2 {
		q := quartiles(s)
		r.note("setup quartiles %.4g, %.4g, %.4g s over %d set-ups", q[0], q[1], q[2], len(s))
	}
}

// jobLatencies records the e2e job metrics of a pass: the latency of each
// job and the pass's throughput in jobs per second.
func (r *result) jobLatencies(lat []time.Duration, jobsPerS float64) {
	s := secs(lat)
	r.e2e["jobs_per_s"] = jobsPerS
	r.e2e["job_p50_s"] = median(s)
	v, p, ok := tail(s)
	r.e2e["job_tail_s"] = v
	qual := ""
	if !ok {
		qual = " (too few jobs for 10 beyond; maximum)"
	}
	r.note("job_tail_s is p%.4g of n=%d jobs%s", p, len(s), qual)
	if len(s) >= 2 {
		q := quartiles(s)
		r.note("job latency quartiles %.4g, %.4g, %.4g s: the within-run spread", q[0], q[1], q[2])
	}
}
