package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span names: the layer boundaries the benchmark times from outside.
const (
	spanRequest = "request" // due (or issue) -> design received
	spanServe   = "serve"   // HTTP round trip
	spanYoutiao = "youtiao" // design call (RedesignCtx, or the response's elapsedMs)
	spanCheck   = "check"   // the benchmark's output check
)

// span is one timed interval of one request. Spans of a request share
// its ID; Parent names the enclosing span.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"startNs"` // since the timed phase began
	EndNs   int64  `json:"endNs"`
}

// spanLog keeps a traced phase's spans in memory. A nil *spanLog is the
// untraced phase: add is a no-op.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	total map[string]time.Duration
}

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, total: make(map[string]time.Duration)}
}

func (l *spanLog) add(id int64, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent,
		StartNs: int64(start.Sub(l.t0)), EndNs: int64(end.Sub(l.t0))})
	l.total[name] += end.Sub(start)
}

// sum is the total duration of all spans with the given name.
func (l *spanLog) sum(name string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total[name]
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
