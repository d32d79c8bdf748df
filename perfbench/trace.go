package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Spans of one sweep cell or one request share ID;
// Parent is the index of the enclosing span (-1 for a root), linked
// when the trace is finished.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
	Label  string `json:"label,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]int64{}}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// id interns a cell or request key.
func (t *tracer) id(key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[key]
	if !ok {
		id = int64(len(t.ids) + 1)
		t.ids[key] = id
	}
	return id
}

// add records a root span (its parent may be linked later) and returns
// its index.
func (t *tracer) add(s span) int { return t.addChild(s, -1) }

// addChild records a span under a known parent and returns its index.
func (t *tracer) addChild(s span, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Parent = parent
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// setEnd closes a span opened with an unknown end.
func (t *tracer) setEnd(i int, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// anchor places spans whose duration is known but whose end is not
// (the engine reports a cell's slot time, not when it ended): each span
// named name ends where the last other span with its ID ends, and keeps
// its duration. Spans with no such sibling keep their recorded times.
func (t *tracer) anchor(name string) {
	last := map[int64]int64{}
	for _, s := range t.spans {
		if s.Name != name && s.End > last[s.ID] {
			last[s.ID] = s.End
		}
	}
	for i, s := range t.spans {
		if end, ok := last[s.ID]; ok && s.Name == name {
			d := s.End - s.Start
			t.spans[i].End, t.spans[i].Start = end, end-d
		}
	}
}

// link sets each span's parent: the innermost span with the same ID
// whose name parents its name (parentOf[child] = parent name). Spans
// whose parent layer has no span with that ID stay roots.
func (t *tracer) link(parentOf map[string]string) {
	byID := map[int64][]int{}
	for i, s := range t.spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	for i := range t.spans {
		want, ok := parentOf[t.spans[i].Name]
		if !ok {
			continue
		}
		for _, j := range byID[t.spans[i].ID] {
			p := t.spans[j]
			if p.Name == want && p.Start <= t.spans[i].Start && t.spans[i].End <= p.End {
				t.spans[i].Parent = j
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, iv := range ivs {
			if iv[0] > curHi {
				if curHi > curLo {
					covered += time.Duration(curHi - curLo)
				}
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		if curHi > curLo {
			covered += time.Duration(curHi - curLo)
		}
		self[i] = s.dur() - covered
	}
	return self
}

// ledger splits an end-to-end figure into layer self times. Total is
// the wall-clock capacity the workload had — sweep wall-clock × worker
// slots for the sweeps, summed request latency for the server — and
// Unattributed is what no layer span covers: Parts plus Unattributed
// equal Total.
type ledger struct {
	Basis        string             `json:"basis"`
	Total        float64            `json:"total_s"`
	Parts        map[string]float64 `json:"parts_s"`
	Unattributed float64            `json:"unattributed_s"`
}

// newLedger sums the self times of the spans under roots named root
// over a total of total seconds. The roots' own self time counts as a
// part only when countRoot is set; otherwise it is left unattributed.
func newLedger(basis string, total float64, spans []span, self []time.Duration, root string, countRoot bool) ledger {
	l := ledger{Basis: basis, Total: total, Parts: map[string]float64{}}
	attributed := 0.0
	for i, s := range spans {
		top := i
		for spans[top].Parent >= 0 {
			top = spans[top].Parent
		}
		if spans[top].Name != root || (top == i && !countRoot) {
			continue
		}
		l.Parts[s.Name] += self[i].Seconds()
		attributed += self[i].Seconds()
	}
	l.Unattributed = total - attributed
	return l
}

func (l ledger) lines() []string {
	names := make([]string, 0, len(l.Parts))
	for n := range l.Parts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("ledger (%s): total %.4f s", l.Basis, l.Total)}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-22s %10.4f s  %5.1f%%", n, l.Parts[n], 100*l.Parts[n]/l.Total))
	}
	out = append(out, fmt.Sprintf("  %-22s %10.4f s  %5.1f%%", "unattributed", l.Unattributed, 100*l.Unattributed/l.Total))
	return out
}
