package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
)

// counters is a snapshot of the process metrics the per-layer figures are
// deltas of.
type counters struct {
	planHits, planMisses             int64
	gixKept, gixPruned               int64
	cacheHits, cacheMisses           int64
	cacheEvictions, cacheInvalidated int64
	flushes                          int64
	retries, resyncs                 int64
	shardRebuilds, docRebuilds       int64
	poolBusyNs                       int64
}

func readCounters() counters {
	var busy int64
	for i := 0; i < 64; i++ {
		busy += obs.PoolWorkerBusy.Value(i)
	}
	return counters{
		planHits: obs.PlanCacheHits.Value(), planMisses: obs.PlanCacheMisses.Value(),
		gixKept: obs.GindexCandidates.Value(), gixPruned: obs.GindexPruned.Value(),
		cacheHits: obs.CacheHits.Value(), cacheMisses: obs.CacheMisses.Value(),
		cacheEvictions: obs.CacheEvictions.Value(), cacheInvalidated: obs.CacheInvalidations.Value(),
		flushes: obs.StreamFlushes.Value(),
		retries: obs.ShardRetries.Value(), resyncs: obs.ShardResyncs.Value(),
		shardRebuilds: obs.StoreShardRebuilds.Value(), docRebuilds: obs.StoreDocRebuilds.Value(),
		poolBusyNs: busy,
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		gixKept: a.gixKept - b.gixKept, gixPruned: a.gixPruned - b.gixPruned,
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		cacheEvictions: a.cacheEvictions - b.cacheEvictions, cacheInvalidated: a.cacheInvalidated - b.cacheInvalidated,
		flushes: a.flushes - b.flushes,
		retries: a.retries - b.retries, resyncs: a.resyncs - b.resyncs,
		shardRebuilds: a.shardRebuilds - b.shardRebuilds, docRebuilds: a.docRebuilds - b.docRebuilds,
		poolBusyNs: a.poolBusyNs - b.poolBusyNs,
	}
}

// runtimeSample reads the runtime figures the pass reports.
type runtimeSample struct {
	allocs, liveHeap uint64
	gcCPU, totalCPU  float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime(samples []metrics.Sample) runtimeSample {
	metrics.Read(samples)
	return runtimeSample{
		allocs:   samples[0].Value.Uint64(),
		liveHeap: samples[1].Value.Uint64(),
		gcCPU:    samples[2].Value.Float64(),
		totalCPU: samples[3].Value.Float64(),
	}
}

func newRuntimeSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	return s
}

// passResult is everything the untraced pass measured.
type passResult struct {
	resp []response
	// busy is the sum of the round trips: the time the closed loop spent
	// waiting on the server (the client's bookkeeping between requests is
	// excluded).
	busy       time.Duration
	allocBytes uint64
	// liveHeap is the heap still reachable after the pass (a forced
	// collection with the stack up): data, indexes, caches and mirrors.
	liveHeap uint64
	gcCPU    float64
	totalCPU float64
	delta    counters
	writes   int
	// checkpointWalls are the round trips of the writes that checkpointed.
	checkpointWalls []float64
	// walGrowth is the WAL plus checkpoint bytes written by the pass.
	walGrowth int64
	rows      int64
	// failed counts the responses that failed or differ from the oracle.
	failed int
	// accessLogs and slowQueries are the log records the pass produced.
	accessLogs, slowQueries int64
}

// latencies splits the round trips into reads and writes (ms).
func (p *passResult) latencies() (reads, writes []float64) {
	for _, r := range p.resp {
		if r.write {
			writes = append(writes, ms(r.latency))
		} else {
			reads = append(reads, ms(r.latency))
		}
	}
	return reads, writes
}

// replay drives the warm-up reads and then the request sequence through
// the frontend once, untraced; only the sequence is measured.
func replay(st *stack, warm, reqs []request) (*passResult, error) {
	type encoded struct {
		path, ctype string
		body        []byte
	}
	bodies := make([]encoded, len(reqs))
	for i, r := range reqs {
		path, ctype, body, err := encodeBody(r)
		if err != nil {
			return nil, err
		}
		bodies[i] = encoded{path, ctype, body}
	}
	c := newClient(st.front.URL)
	defer c.close()
	if err := c.open(); err != nil {
		return nil, err
	}
	for i, r := range warm {
		if resp := c.do(r); resp.err != nil {
			return nil, fmt.Errorf("warm-up read %d: %w", i, resp.err)
		}
	}
	runtime.GC()
	samples := newRuntimeSamples()
	p := &passResult{resp: make([]response, len(reqs))}
	before := readCounters()
	logs0, slow0 := st.accessLogs.Load(), st.slowQueries.Load()
	rt0 := readRuntime(samples)
	for i, r := range reqs {
		var wal0, snap0 int64
		var ck0 int64
		if r.write {
			wal0, snap0 = st.walBytes()
			ck0 = obs.WALCheckpoints.Value()
		}
		b := bodies[i]
		resp := c.send(b.path, b.ctype, b.body, r.write)
		resp.write = r.write
		p.busy += resp.latency
		p.rows += int64(resp.rows)
		if r.write {
			p.writes++
			wal1, snap1 := st.walBytes()
			if obs.WALCheckpoints.Value() != ck0 {
				p.checkpointWalls = append(p.checkpointWalls, ms(resp.latency))
				p.walGrowth += snap1 + wal1
			} else if grown := wal1 - wal0 + snap1 - snap0; grown > 0 {
				p.walGrowth += grown
			}
		}
		p.resp[i] = resp
	}
	rt1 := readRuntime(samples)
	p.delta = readCounters().minus(before)
	p.accessLogs = st.accessLogs.Load() - logs0
	p.slowQueries = st.slowQueries.Load() - slow0
	p.allocBytes = rt1.allocs - rt0.allocs
	p.gcCPU = rt1.gcCPU - rt0.gcCPU
	p.totalCPU = rt1.totalCPU - rt0.totalCPU
	runtime.GC()
	p.liveHeap = readRuntime(samples).liveHeap
	return p, nil
}

// encodeSink renders rows into the v2 row-line encoding and discards
// them, timing its own work so it can be taken out of the engine's wall.
type encodeSink struct {
	enc  *json.Encoder
	n    int
	self time.Duration
}

func newEncodeSink() *encodeSink {
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	return &encodeSink{enc: enc}
}

// Emit implements exec.ResultSink.
func (s *encodeSink) Emit(g *graph.Graph) error {
	start := time.Now()
	var l rowLine
	l.Row.N = s.n
	l.Row.Graph = g.String()
	s.n++
	err := s.enc.Encode(&l)
	s.self += time.Since(start)
	return err
}

// directResult is what a direct (in-process, no HTTP) pass measured.
type directResult struct {
	parse      []float64 // µs per read
	streamWall []float64 // ms per read
	streamSelf []float64 // ms per read, sink work removed
	hitWall    []float64 // ms per cache-hit span
	lower      []float64 // ms per write: parse + lower
	spans      spanTotals
}

// directPass replays the warm-up reads and then the sequence against a
// stack through direct calls into the engine, each read streamed into a
// sink that renders v2 row lines. The untraced form only times
// Engine.StreamQuery: it is the baseline of the tracing overhead. The
// traced form also times parser.Parse (per read) and parse plus
// exec.LowerMutations (per write; the stack's store wrapper times the
// batch itself), runs every read with tracing on, and attributes every
// read the served path evaluates (not a cache hit) layer by layer from
// its span tree. A take-capped read is attributed from its streamed
// evaluation — its few rows barely overlap the selection. An uncapped
// read streams rows while its selection is still running, so its return
// fan-out and selection spans overlap; it is attributed from a second,
// buffered evaluation of the same program (Engine.RunContext, which
// bypasses the result cache), whose spans do not overlap.
func directPass(st *stack, warm, reqs []request, traced bool) (*directResult, error) {
	ctx := context.Background()
	for i, r := range warm {
		if _, err := st.eng.StreamQuery(ctx, r.src, newEncodeSink(), exec.StreamOptions{Take: r.take}); err != nil {
			return nil, fmt.Errorf("warm-up read %d: %w", i, err)
		}
	}
	runtime.GC()
	t := &directResult{}
	eng := st.eng.Request(exec.RequestOptions{Trace: traced})
	attribute := func(on bool) {
		if traced {
			st.tracer.setAttribute(on)
		}
	}
	for i, r := range reqs {
		start := time.Now()
		prog, err := parser.Parse(r.src)
		parse := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		if r.write {
			if _, err := exec.LowerMutations(prog); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			t.lower = append(t.lower, ms(time.Since(start)))
			if _, err := eng.Mutate(ctx, r.src); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			continue
		}
		t.parse = append(t.parse, float64(parse)/float64(time.Microsecond))
		take := r.take
		if take < 0 {
			take = exec.AllRows
		}
		sink := newEncodeSink()
		attribute(take >= 0)
		start = time.Now()
		sres, err := eng.StreamQuery(ctx, r.src, sink, exec.StreamOptions{Take: take})
		wall := time.Since(start)
		attribute(false)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		t.streamWall = append(t.streamWall, ms(wall))
		t.streamSelf = append(t.streamSelf, ms(wall-sink.self))
		if !traced {
			continue
		}
		if sres.CacheHit {
			for _, c := range sres.Trace.Children() {
				if c.Name == "cache-hit" {
					t.hitWall = append(t.hitWall, ms(c.Wall()))
				}
			}
			continue
		}
		if take >= 0 {
			t.spans.add(sres.Trace)
			continue
		}
		attribute(true)
		res, err := eng.RunContext(ctx, prog)
		attribute(false)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		t.spans.add(res.Trace)
	}
	return t, nil
}
