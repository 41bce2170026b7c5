package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is the ID of the span that caused it (0 for a root); spans of
// one campaign share Campaign.
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Name     string  `json:"name"`
	Campaign string  `json:"campaign,omitempty"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced measurements run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span in flight; end records it.
type open struct {
	t     *tracer
	id    int64
	s     span
	start time.Time
}

func (t *tracer) start(name, campaign string, parent int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	return open{t: t, id: id, start: now, s: span{ID: id, Parent: parent, Name: name, Campaign: campaign}}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	now := time.Now()
	o.s.StartS = o.start.Sub(o.t.epoch).Seconds()
	o.s.EndS = now.Sub(o.t.epoch).Seconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// durations returns the durations in seconds of every span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndS-s.StartS)
		}
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTime() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartS < kids[j].StartS })
		covered, reach := 0.0, s.StartS
		for _, k := range kids {
			lo, hi := max(k.StartS, reach), min(k.EndS, s.EndS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[layerOf(s.Name)] += (s.EndS - s.StartS) - covered
	}
	return out
}

// write stores every span as one JSON line.
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

// httpLog counts and times every request an HTTP control plane served, as
// seen from a middleware in front of its handler. For the fleet it also
// follows leases: the grant time of each outstanding lease, the summed time
// from grant to commit, and the lease polls answered without a lease.
type httpLog struct {
	mu         sync.Mutex
	byName     map[string][]float64 // request durations in seconds by route
	codes      map[int]int
	total      int
	granted    map[string]time.Time // by lease ID
	leaseBusy  time.Duration
	emptyPolls int
}

func newHTTPLog() *httpLog {
	return &httpLog{byName: make(map[string][]float64), codes: make(map[int]int), granted: make(map[string]time.Time)}
}

// failures counts responses that fail a request: 5xx, 409 and 429.
func (l *httpLog) failures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.codes[http.StatusConflict] + l.codes[http.StatusTooManyRequests]
	for code, c := range l.codes {
		if code >= 500 {
			n += c
		}
	}
	return n
}

func (l *httpLog) requests() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *httpLog) durations(route string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.byName[route]...)
}

func (l *httpLog) code(c int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.codes[c]
}

// route names a request by its method and path with IDs removed, prefixed
// with the control plane's layer ("service.submit", "fleet.lease", ...).
func route(layer string, r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	last := parts[len(parts)-1]
	switch {
	case strings.HasSuffix(r.URL.Path, "/leases") && r.Method == http.MethodPost:
		return layer + ".lease"
	case last == "heartbeat" || last == "complete" || last == "transcript" || last == "findings" || last == "sync":
		return layer + "." + last
	case (last == "campaigns") && r.Method == http.MethodPost:
		return layer + ".submit"
	case last == "campaigns" || (len(parts) >= 2 && parts[len(parts)-2] == "campaigns"):
		return layer + ".status"
	}
	return layer + "." + last
}

// statusWriter keeps the response code and, when body is non-nil, a copy
// of the response body.
type statusWriter struct {
	http.ResponseWriter
	code int
	body *bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// middleware wraps a control plane's handler: it times and counts every
// request and, when tracing, records a span per request. Fleet lease grants
// and commits are matched by lease ID for the workers' busy time.
func (b *bench) middleware(layer string, log *httpLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(layer, r)
		sp := b.tr.start(name, "", 0)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if name == "fleet.lease" {
			sw.body = new(bytes.Buffer)
		}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		sp.end()
		var lease struct {
			ID string `json:"id"`
		}
		granted := name == "fleet.lease" && sw.code == http.StatusOK && json.Unmarshal(sw.body.Bytes(), &lease) == nil
		log.mu.Lock()
		defer log.mu.Unlock()
		log.byName[name] = append(log.byName[name], end.Sub(start).Seconds())
		log.codes[sw.code]++
		log.total++
		switch {
		case granted:
			log.granted[lease.ID] = end
		case name == "fleet.lease" && sw.code == http.StatusNoContent:
			log.emptyPolls++
		case name == "fleet.complete" && sw.code == http.StatusOK:
			parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
			id := parts[len(parts)-2]
			if t, ok := log.granted[id]; ok {
				log.leaseBusy += end.Sub(t)
				delete(log.granted, id)
			}
		}
	})
}

// leaseStats returns the workers' summed time from lease grant to commit
// and the number of lease polls answered without a lease.
func (l *httpLog) leaseStats() (time.Duration, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.leaseBusy, l.emptyPolls
}
