package main

import (
	"context"
	"encoding/json"
	"fmt"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/store"
)

// newOracle returns the reference engine: serial, unsharded, uncached and
// unindexed, over freshly generated copies of the workload's documents,
// with the served engine's matcher options.
func newOracle(workload string, seed int64) *exec.Engine {
	docs := exec.Store{}
	if workload == "ppi-motif" {
		docs["ppi"] = graph.NewCollection(ppiData())
	} else {
		docs["dblp"] = dblpData(seed)
	}
	if workload != "dblp-readwrite" {
		docs["side"] = sideDoc()
	}
	eng := exec.New(docs)
	if workload == "ppi-motif" {
		eng.Opts = match.Optimized()
	}
	return eng
}

// expectation is what a correct server answers to one request.
type expectation struct {
	rows    int
	digest  uint64
	applied store.ApplyResult
}

// expect replays the sequence on the oracle, in order, and records the
// answer a correct server gives to each request: a read's rows (count and
// row-line digest), a write's application counts. It runs after the timed
// passes, outside any measurement.
func expect(workload string, seed int64, reqs []request) ([]expectation, error) {
	ctx := context.Background()
	eng := newOracle(workload, seed)
	memo := map[string]expectation{}
	out := make([]expectation, len(reqs))
	for i, r := range reqs {
		if r.write {
			res, err := eng.Mutate(ctx, r.src)
			if err != nil {
				return nil, fmt.Errorf("oracle write %d: %w", i, err)
			}
			res.Version = 0 // the served store's version history differs
			out[i] = expectation{applied: *res}
			continue
		}
		key := fmt.Sprintf("%d\x00%s", r.take, r.src)
		if e, ok := memo[key]; ok {
			out[i] = e
			continue
		}
		res, err := eng.RunQuery(ctx, r.src)
		if err != nil {
			return nil, fmt.Errorf("oracle read %d: %w", i, err)
		}
		rows := res.Out
		if r.take >= 0 && len(rows) > r.take {
			rows = rows[:r.take]
		}
		texts := make([]string, len(rows))
		for j, row := range rows {
			texts[j] = row.String()
		}
		d, err := rowDigest(texts)
		if err != nil {
			return nil, err
		}
		out[i] = expectation{rows: len(rows), digest: d}
		// Without writes to the queried document a program's answer never
		// changes, so repeats reuse it.
		if workload != "dblp-readwrite" {
			memo[key] = out[i]
		}
	}
	return out, nil
}

// mismatches counts the responses that failed or differ from the oracle.
func mismatches(reqs []request, want []expectation, got []response) int {
	n := 0
	for i, r := range reqs {
		g, w := got[i], want[i]
		switch {
		case g.err != nil:
			n++
		case r.write && g.applied != w.applied:
			n++
		case !r.write && (g.rows != w.rows || g.digest != w.digest):
			n++
		}
	}
	return n
}

// decodeApplied reads a /v2/mutate answer: the application counts (with
// the version cleared, since only the counts are comparable) and the
// server's wall time.
func decodeApplied(b []byte) (store.ApplyResult, float64, error) {
	var m struct {
		store.ApplyResult
		WallMS float64 `json:"wall_ms"`
	}
	err := json.Unmarshal(b, &m)
	m.Version = 0
	return m.ApplyResult, m.WallMS, err
}
