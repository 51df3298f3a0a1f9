package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call the benchmark makes.
type span struct {
	Name string `json:"name"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the heap bytes the whole process allocated while the span
	// was open; it is the span's own allocation only when no other
	// goroutine was allocating (the sequential layer replay).
	Alloc uint64 `json:"alloc_bytes"`

	alloc0 uint64
}

// tracer keeps spans in memory until the run writes them out at exit. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// heapAllocs reads the process's cumulative heap allocation counter
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// begin opens a span under parent (-1 for a root) and returns its id. It
// is safe for concurrent use; a nil tracer returns -1.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1, alloc0: a})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.Alloc = a - s.alloc0
}

// call runs f inside a span named name.
func (t *tracer) call(parent int, name string, f func()) {
	id := t.begin(parent, name)
	defer t.end(id)
	f()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children. Children may overlap each other (ops
// run on several workers), so the covered part is the length of the
// union of their intervals, clipped to the parent's. Unclosed spans
// count as empty.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfAllocs returns, per span, its allocation minus its children's,
// floored at zero (concurrent children each see the others' allocation).
func selfAllocs(spans []span) []uint64 {
	child := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.Alloc
		}
	}
	out := make([]uint64, len(spans))
	for i, s := range spans {
		if s.Alloc > child[i] {
			out[i] = s.Alloc - child[i]
		}
	}
	return out
}

// descendants reports which spans lie under root (root included).
func descendants(spans []span, root int) []bool {
	in := make([]bool, len(spans))
	if root < 0 || root >= len(spans) {
		return in
	}
	in[root] = true
	// Parents are always recorded before their children.
	for i := root + 1; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 && in[p] {
			in[i] = true
		}
	}
	return in
}
