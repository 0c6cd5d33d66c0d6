package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span kinds: one per public call the operation loop makes, plus the
// benchmark's own service function. The program under test is not
// instrumented; these are the boundaries visible from outside it.
const (
	spanOp uint8 = iota
	spanBegin
	spanDoLocal
	spanDoRemote
	spanEnd
	spanHandler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core.begin", "core.do_local", "core.do_remote", "core.end", "handler",
}

// span is one timed interval. Spans of one operation share Op; Parent is
// the index of the causing span in the same recorder, -1 for a root.
type span struct {
	Kind       uint8
	Parent     int32
	Op         uint64
	Start, End int64 // ns since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, so the untraced loop runs the same code minus the clock reads.
type recorder struct {
	epoch time.Time
	spans []span
}

// newRecorder starts empty and grows as it records: a large preallocation
// would be live heap, which slows the collector down and would make the
// traced window look cheaper than the untraced one it is compared with.
func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch}
}

func (r *recorder) start(kind uint8, op uint64, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Kind: kind, Parent: parent, Op: op, Start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// handlerLog collects the service function's executions. Handlers run on
// server goroutines (live) or inside the caller (sim), so entries carry the
// operation's sequence number and are attached to their do_* span after the
// run.
type handlerLog struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []span
}

func (h *handlerLog) record(op uint64, start time.Time) {
	if h == nil {
		return
	}
	s := span{Kind: spanHandler, Op: op, Start: int64(start.Sub(h.epoch)), End: int64(time.Since(h.epoch))}
	h.mu.Lock()
	h.recs = append(h.recs, s)
	h.mu.Unlock()
}

// attachHandlers appends each handler record to the recorder holding its
// operation, as a child of the do_* span that was open when the handler
// started. A hedged operation can own two handlers under one do_remote.
func attachHandlers(recs []*recorder, h *handlerLog) {
	if h == nil {
		return
	}
	type loc struct {
		rec   *recorder
		spans []int32 // the operation's do_* spans
	}
	byOp := make(map[uint64]*loc)
	for _, r := range recs {
		for i, s := range r.spans {
			if s.Kind != spanDoLocal && s.Kind != spanDoRemote {
				continue
			}
			l := byOp[s.Op]
			if l == nil {
				l = &loc{rec: r}
				byOp[s.Op] = l
			}
			l.spans = append(l.spans, int32(i))
		}
	}
	for _, hs := range h.recs {
		l := byOp[hs.Op]
		if l == nil {
			continue // warm-up or probe traffic
		}
		for _, i := range l.spans {
			p := l.rec.spans[i]
			if hs.Start >= p.Start && hs.Start <= p.End {
				hs.Parent = i
				l.rec.spans = append(l.rec.spans, hs)
				break
			}
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its children cover. Overlapping children (a hedged pair) count
// once; a child running past its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - childCover(spans, s, children[int32(i)])
	}
	return self
}

// childCover is the length of the union of the children's intervals inside
// the parent.
func childCover(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var cover int64
	edge := parent.Start
	for _, k := range kids {
		start, end := spans[k].Start, spans[k].End
		if start < edge {
			start = edge
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			cover += end - start
			edge = end
		}
	}
	return cover
}

// traceFileSpanLimit caps the spans written per trace file; the per-layer
// numbers always use every span recorded.
const traceFileSpanLimit = 100_000

type traceFileSpan struct {
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the recorders' spans to dir/trace-<workload>.json.
// Span IDs are per-goroutine indices offset so they stay unique in the file.
func writeTrace(dir, workload string, seed uint64, recs []*recorder) (string, error) {
	var out []traceFileSpan
	total, base := 0, 0
	for _, r := range recs {
		total += len(r.spans)
		for i, s := range r.spans {
			if len(out) >= traceFileSpanLimit {
				break
			}
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			out = append(out, traceFileSpan{
				Name: spanNames[s.Kind], Op: s.Op, ID: base + i, Parent: parent,
				StartNs: s.Start, EndNs: s.End,
			})
		}
		base += len(r.spans)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Workload   string          `json:"workload"`
		Seed       uint64          `json:"seed"`
		TotalSpans int             `json:"total_spans"`
		Truncated  bool            `json:"truncated"`
		Spans      []traceFileSpan `json:"spans"`
	}{workload, seed, total, total > len(out), out}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
