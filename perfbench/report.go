package main

import "runtime"

// perLayer fills the per-layer metrics: counter deltas and client-side
// figures of the last HTTP pass (the counts are identical in every pass),
// span and wrapper figures of the traced direct pass t, and the tracing
// overhead against the untraced direct pass base. NOTES.md lists the
// end-to-end metric each should move.
func perLayer(m map[string]metric, times []setupTimes, passes []*passResult, base, t *directResult, tr *tracer) {
	u := passes[len(passes)-1]
	d := u.delta
	sp := t.spans
	trees := float64(sp.trees)
	nsToMS := func(ns int64) float64 { return float64(ns) / 1e6 }

	var overhead []float64
	var readBytes, reads float64
	for _, r := range u.resp {
		if r.write {
			continue
		}
		reads++
		readBytes += float64(r.bytes)
		overhead = append(overhead, ms(r.latency)-r.wallMS)
	}
	_, writes := u.latencies()
	writeP90 := 0.0
	if u.walGrowth > 0 {
		writeP90, _ = percentile(writes, 90)
	}

	var mirrorWall []float64
	var mirrorBytes float64
	for _, c := range tr.mirror {
		mirrorWall = append(mirrorWall, ms(c.wall))
		mirrorBytes += float64(c.bytes)
	}
	var applies []float64
	for _, a := range tr.applies {
		applies = append(applies, ms(a))
	}
	apply := 0.0
	if len(applies) > 0 {
		apply = mean(t.lower) + mean(applies)
	}

	st := medianTimes(times)
	m["setup.gen_s"] = metric{st.gen, "s"}
	m["setup.load_s"] = metric{st.load, "s"}
	m["setup.sync_s"] = metric{st.sync, "s"}

	m["parser.parse_us"] = metric{mean(t.parse), "us"}
	m["exec.stream_ms"] = metric{mean(t.streamSelf), "ms"}
	m["exec.self_ms"] = metric{ratio(nsToMS(sp.execSelf), trees), "ms"}
	m["match.select_ms"] = metric{ratio(nsToMS(sp.matchSelf), trees), "ms"}
	m["match.search_steps_per_match"] = metric{ratio(float64(sp.searchSteps), float64(sp.matches)), "count"}
	m["match.cand_refined_per_baseline"] = metric{ratio(float64(sp.candRefined), float64(sp.candBaseline)), "ratio"}
	m["match.plan_cache_hit_ratio"] = metric{ratio(float64(d.planHits), float64(d.planHits+d.planMisses)), "ratio"}
	m["gindex.kept_ratio"] = metric{ratio(float64(d.gixKept), float64(d.gixKept+d.gixPruned)), "ratio"}
	m["store.coord.select_ms"] = metric{ratio(nsToMS(sp.coordSelf), trees), "ms"}
	m["pool.utilization"] = metric{ratio(float64(d.poolBusyNs), float64(u.busy.Nanoseconds())*float64(runtime.GOMAXPROCS(0))), "ratio"}
	m["algebra.instantiate_ms"] = metric{ratio(nsToMS(sp.instantiate), trees), "ms"}
	m["algebra.instantiate_us_per_row"] = metric{ratio(float64(sp.instantiate)/1e3, float64(sp.rowsInstantiated)), "us"}
	m["store.cache.hit_ratio"] = metric{ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)), "ratio"}
	m["store.cache.hit_ms"] = metric{mean(t.hitWall), "ms"}
	m["store.cache.evictions"] = metric{float64(d.cacheEvictions), "count"}
	m["store.cache.invalidations_per_write"] = metric{ratio(float64(d.cacheInvalidated), float64(u.writes)), "count"}
	m["server.overhead_ms"] = metric{mean(overhead), "ms"}
	m["server.bytes_per_row"] = metric{ratio(readBytes, float64(u.rows)), "B"}
	m["server.flushes_per_req"] = metric{ratio(float64(d.flushes), reads), "count"}
	m["store.remote.rpc_ms"] = metric{ratio(float64(sp.rpcWallUS)/1e3, float64(sp.rpcs)), "ms"}
	m["store.remote.rpc_max_ms"] = metric{ratio(float64(sp.rpcMaxUSum)/1e3, float64(sp.fanouts)), "ms"}
	m["store.remote.retries"] = metric{float64(d.retries), "count"}
	m["store.remote.resyncs"] = metric{float64(d.resyncs), "count"}
	m["shardsrv.handle_ms"] = metric{mean(mirrorWall), "ms"}
	m["shardsrv.bytes_per_match"] = metric{ratio(mirrorBytes, float64(sp.shardedMatches)), "B"}
	m["store.apply_ms"] = metric{apply, "ms"}
	m["store.shard_rebuilds_per_write"] = metric{ratio(float64(d.shardRebuilds), float64(u.writes)), "count"}
	m["store.doc_rebuilds"] = metric{float64(d.docRebuilds), "count"}
	m["store.wal.bytes_per_write"] = metric{ratio(float64(u.walGrowth), float64(u.writes)), "B"}
	m["store.wal.checkpoint_ms"] = metric{mean(u.checkpointWalls), "ms"}
	m["store.wal.write_p90_ms"] = metric{writeP90, "ms"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(u.gcCPU, u.totalCPU), "ratio"}
	m["runtime.alloc_kb_per_row"] = metric{ratio(float64(u.allocBytes)/1024, float64(u.rows)), "KB"}
	tracedP50, _ := percentile(t.streamWall, 50)
	untracedP50, _ := percentile(base.streamWall, 50)
	m["obs.trace_overhead"] = metric{ratio(tracedP50, untracedP50) - 1, "ratio"}
}
