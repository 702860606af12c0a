package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, or
// one of the benchmark's own units of work (layer "bench") that parent
// such calls. All spans of one service job carry the job's id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops every span; a run keeps only those of its last set-up
// and its timed section.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.t0 = time.Now()
	t.spans = nil
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Job: job, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// tagJob gives span root and its children the job's id, once the
// service has assigned it.
func (t *tracer) tagJob(root int, job string) {
	if t == nil || root == 0 || job == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := root - 1; i < len(t.spans); i++ {
		if t.spans[i].ID == root || t.spans[i].Parent == root {
			t.spans[i].Job = job
		}
	}
}

// selfTimes sums, per layer, each span's length minus the length of its
// children. A span's children are sequential calls made on one
// goroutine, so they never overlap one another.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if d := s.End - s.Start - children[s.ID]; d > 0 {
			self[s.Layer] += d
		}
	}
	return self
}

// overhead returns the number of spans recorded and an estimate of the
// time recording them cost: the count times the measured cost of one
// begin/end pair on a scratch tracer.
func (t *tracer) overhead() (int, float64) {
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	const pairs = 10000
	scratch := newTracer()
	start := time.Now()
	for i := 0; i < pairs; i++ {
		scratch.end(scratch.begin(i, "bench", "calibrate", ""))
	}
	return n, float64(n) * time.Since(start).Seconds() / pairs
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
