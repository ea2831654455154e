package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"gqldb/internal/obs"
	"gqldb/internal/store"
)

// tracer collects the traced run's measurements that are taken around
// calls into the program from outside: mirror request handling and store
// write batches. Spans are kept in memory and reduced when the run ends.
type tracer struct {
	mu sync.Mutex
	// attribute gates the mirror records: only selections made while it is
	// set belong to the attributed (buffered) evaluation.
	attribute bool
	mirror    []mirrorCall
	applies   []time.Duration
}

// mirrorCall is one /shard/select request as the mirror served it.
type mirrorCall struct {
	wall  time.Duration
	bytes int64
}

func (t *tracer) setAttribute(on bool) {
	t.mu.Lock()
	t.attribute = on
	t.mu.Unlock()
}

// wrapMirror times each shard selection a mirror serves and counts the
// bytes of its answer.
func (t *tracer) wrapMirror(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/select" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		wall := time.Since(start)
		t.mu.Lock()
		if t.attribute {
			t.mirror = append(t.mirror, mirrorCall{wall: wall, bytes: cw.n})
		}
		t.mu.Unlock()
	})
}

// countingWriter counts response bytes and keeps the Flusher the shard
// server relies on.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// mutableStore is what the engine needs of a writable store.
type mutableStore interface {
	store.Store
	store.Mutator
}

// timedStore times every write batch the engine applies.
type timedStore struct {
	mutableStore
	t *tracer
}

// ApplyBatch implements store.Mutator.
func (s *timedStore) ApplyBatch(ctx context.Context, muts []store.Mutation) (*store.ApplyResult, error) {
	start := time.Now()
	res, err := s.mutableStore.ApplyBatch(ctx, muts)
	wall := time.Since(start)
	s.t.mu.Lock()
	s.t.applies = append(s.t.applies, wall)
	s.t.mu.Unlock()
	return res, err
}

// spanTotals reduces the span trees of the attributed evaluations into
// per-layer self times (nanoseconds) and counts.
type spanTotals struct {
	trees int

	execSelf    int64
	matchSelf   int64
	coordSelf   int64
	instantiate int64

	searchSteps  int64
	matches      int64
	candRefined  int64
	candBaseline int64

	rowsInstantiated int64
	shardedMatches   int64

	rpcs       int64
	rpcWallUS  int64
	fanouts    int64
	rpcMaxUSum int64
}

// spanInterval is a span's [start, end) on the monotonic clock origin.
func spanInterval(s *obs.Span, origin time.Time) interval {
	start := s.Start.Sub(origin).Nanoseconds()
	return interval{start, start + s.Wall().Nanoseconds()}
}

// add folds one evaluation's span tree into the totals: every span's self
// time (its wall minus what its children cover) goes to the layer the
// span belongs to.
func (t *spanTotals) add(root *obs.Span) {
	if root == nil {
		return
	}
	t.trees++
	origin := root.Start
	root.Walk(func(_ int, s *obs.Span) {
		kids := s.Children()
		ivs := make([]interval, len(kids))
		for i, k := range kids {
			ivs[i] = spanInterval(k, origin)
		}
		self := selfTime(spanInterval(s, origin), ivs)
		switch s.Name {
		case "selection":
			t.matchSelf += self
			t.searchSteps += s.Count("search_steps")
			t.matches += s.Count("matches")
			t.candRefined += s.Count("cand_refined")
			t.candBaseline += s.Count("cand_baseline")
		case "sharded-selection":
			t.coordSelf += self
			t.shardedMatches += s.Count("matches")
			t.fanouts++
			var slowest int64
			for _, k := range kids {
				if k.Name != "shard-rpc" {
					continue
				}
				us := k.Count("wall_us")
				t.rpcs++
				t.rpcWallUS += us
				if us > slowest {
					slowest = us
				}
			}
			t.rpcMaxUSum += slowest
		case "return-fanout":
			t.instantiate += self
			t.rowsInstantiated += s.Count("items")
		case "shard-rpc":
			// Zero-length markers recorded at arrival; their wall_us
			// counters are read from the parent above.
		default:
			// query, flwr, compile and anything unclassified.
			t.execSelf += self
		}
	})
}
