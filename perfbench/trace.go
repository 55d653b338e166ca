package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gflink/internal/obs"
)

// hostSpan is one benchmark-side interval on the host clock: a set-up
// repetition, a job, or a timed layer call. Host spans are kept apart
// from obs, whose timestamps come only from the virtual clock.
type hostSpan struct {
	cat, name  string
	start, end time.Time
}

// hostSpans collects the benchmark's host-clock spans. A nil
// collector records nothing.
type hostSpans struct {
	spans []hostSpan
}

func (h *hostSpans) add(cat, name string, start, end time.Time) {
	if h == nil {
		return
	}
	h.spans = append(h.spans, hostSpan{cat: cat, name: name, start: start, end: end})
}

// writeTrace writes one Chrome trace file with two processes that never
// share a timeline: pid 0 holds the traced job's virtual-clock spans as
// obs exports them, pid 1 the benchmark's host-clock spans (one thread
// row per category), in microseconds since the first host span.
func writeTrace(path, simName string, tracer *obs.Tracer, host []hostSpan) error {
	data, err := obs.ChromeTrace(obs.TraceProcess{Name: simName, Tracer: tracer})
	if err != nil {
		return err
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return err
	}
	const hostPid = 1
	file.TraceEvents = append(file.TraceEvents, map[string]any{
		"name": "process_name", "ph": "M", "pid": hostPid, "tid": 0,
		"args": map[string]any{"name": "host clock: perfbench"},
	})
	tids := map[string]int{}
	var origin time.Time
	if len(host) > 0 {
		origin = host[0].start
	}
	for _, s := range host {
		tid, ok := tids[s.cat]
		if !ok {
			tid = len(tids)
			tids[s.cat] = tid
			file.TraceEvents = append(file.TraceEvents, map[string]any{
				"name": "thread_name", "ph": "M", "pid": hostPid, "tid": tid,
				"args": map[string]any{"name": s.cat},
			})
		}
		file.TraceEvents = append(file.TraceEvents, map[string]any{
			"name": s.name, "cat": s.cat, "ph": "X", "pid": hostPid, "tid": tid,
			"ts":  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			"dur": float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	out, err := json.Marshal(file)
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(out); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
