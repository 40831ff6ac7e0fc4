package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sops/internal/failfs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions (or at the failfs seam for file I/O).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced passes run the same
// code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 for a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every finished span named name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fsProbe is installed with failfs.Swap under every durable write the
// program makes. It always counts (fsyncs, bytes, checkpoint renames), so
// traced and untraced passes can be compared on the same counts; with a
// tracer it also records a span per operation and one "seal.write" span
// per sealed-artifact write, from the Stat that seal.WriteSealed starts
// with to the directory fsync that atomicio's commit ends with.
type fsProbe struct {
	base failfs.FS
	tr   *tracer

	fsyncs, bytes, ckptWrites atomic.Int64

	mu   sync.Mutex
	open map[string]int // directory → open seal.write span
}

// ckptName is the base name of run checkpoints in the job store; renames
// onto it count as checkpoint writes.
const ckptName = "checkpoint"

func newFSProbe(base failfs.FS, tr *tracer) *fsProbe {
	return &fsProbe{base: base, tr: tr, open: make(map[string]int)}
}

// span opens a span for an operation on a file in dir: a child of the
// seal.write span open for dir, if any. The benchmark does not see the
// call that caused any other file operation, so those spans are roots.
func (p *fsProbe) span(name, dir string) int {
	if p.tr == nil {
		return 0
	}
	p.mu.Lock()
	parent := p.open[filepath.Clean(dir)]
	p.mu.Unlock()
	return p.tr.begin(name, parent)
}

func (p *fsProbe) CreateTemp(dir, pattern string) (failfs.File, error) {
	id := p.span("fs.create", dir)
	f, err := p.base.CreateTemp(dir, pattern)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &probeFile{File: f, p: p}, nil
}

func (p *fsProbe) ReadFile(name string) ([]byte, error) {
	id := p.span("fs.read", filepath.Dir(name))
	defer p.tr.end(id)
	return p.base.ReadFile(name)
}

func (p *fsProbe) WriteFile(name string, data []byte, perm fs.FileMode) error {
	id := p.span("fs.writefile", filepath.Dir(name))
	defer p.tr.end(id)
	p.bytes.Add(int64(len(data)))
	return p.base.WriteFile(name, data, perm)
}

func (p *fsProbe) Rename(oldpath, newpath string) error {
	id := p.span("fs.rename", filepath.Dir(newpath))
	defer p.tr.end(id)
	err := p.base.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == ckptName {
		p.ckptWrites.Add(1)
	}
	return err
}

func (p *fsProbe) Remove(name string) error {
	id := p.span("fs.remove", filepath.Dir(name))
	defer p.tr.end(id)
	return p.base.Remove(name)
}

func (p *fsProbe) MkdirAll(path string, perm fs.FileMode) error {
	id := p.span("fs.mkdir", path)
	defer p.tr.end(id)
	return p.base.MkdirAll(path, perm)
}

func (p *fsProbe) Link(oldname, newname string) error {
	id := p.span("fs.link", filepath.Dir(newname))
	defer p.tr.end(id)
	return p.base.Link(oldname, newname)
}

func (p *fsProbe) Stat(name string) (fs.FileInfo, error) {
	if p.tr != nil {
		// seal.WriteSealed is the only caller that stats an artifact
		// before writing it: open its span here.
		id := p.tr.begin("seal.write", 0)
		p.mu.Lock()
		p.open[filepath.Dir(name)] = id
		p.mu.Unlock()
	}
	return p.base.Stat(name)
}

func (p *fsProbe) SyncDir(dir string) error {
	p.fsyncs.Add(1)
	id := p.span("fs.fsync", dir)
	err := p.base.SyncDir(dir)
	p.tr.end(id)
	if p.tr != nil {
		p.mu.Lock()
		seal, ok := p.open[filepath.Clean(dir)]
		delete(p.open, filepath.Clean(dir))
		p.mu.Unlock()
		if ok {
			p.tr.end(seal)
		}
	}
	return err
}

type probeFile struct {
	failfs.File
	p *fsProbe
}

func (f *probeFile) Write(b []byte) (int, error) {
	id := f.p.span("fs.write", filepath.Dir(f.Name()))
	defer f.p.tr.end(id)
	n, err := f.File.Write(b)
	f.p.bytes.Add(int64(n))
	return n, err
}

func (f *probeFile) Sync() error {
	f.p.fsyncs.Add(1)
	id := f.p.span("fs.fsync", filepath.Dir(f.Name()))
	defer f.p.tr.end(id)
	return f.File.Sync()
}

// counts is a reading of an fsProbe's counters.
type counts struct{ fsyncs, bytes, ckptWrites int64 }

func (p *fsProbe) read() counts {
	return counts{p.fsyncs.Load(), p.bytes.Load(), p.ckptWrites.Load()}
}

func (c counts) sub(o counts) counts {
	return counts{c.fsyncs - o.fsyncs, c.bytes - o.bytes, c.ckptWrites - o.ckptWrites}
}
