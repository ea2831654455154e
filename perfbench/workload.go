package main

import (
	"container/list"
	"fmt"
	"math/rand"
	"strings"

	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// Workload sizes. They are fixed (not scaled by --seconds) so every run
// of a workload measures the same kind of request on the same data size.
const (
	dblpPapers  = 4000
	dblpAuthors = 1000
	dblpShards  = 4
	dblpIndex   = 3 // gindex path length
	mirrors     = 3

	// resultCacheCap bounds the frontend result cache (entries). The
	// dblp-cluster sequence is built against an exact model of this LRU.
	resultCacheCap = 32
	planCacheCap   = 512

	// ppiTake caps the rows of each ppi-motif request.
	ppiTake = 20
	// sideWriteEvery interleaves one write to the unqueried side document
	// after this many reads on the read-only workloads.
	sideWriteEvery = 4
	// checkpointEvery is the dblp-readwrite WAL checkpoint interval
	// (batches).
	checkpointEvery = 32
)

var venues = []string{"SIGMOD", "VLDB", "ICDE", "KDD", "PODS", "CIKM", "EDBT", "WWW"}

// request is one step of a replayed sequence.
type request struct {
	// write sends src to /v2/mutate; otherwise src goes to /v2/query.
	write bool
	src   string
	// take caps the rows of a read (-1: no cap).
	take int
	// wantHit is the model's prediction that the read replays from the
	// result cache (dblp-cluster only).
	wantHit bool
}

// perSecond is the nominal request rate of each workload on a 2-core
// machine; a run replays seconds×perSecond requests, so the request count
// (and with it every exact count) is fixed by the arguments, not by how
// fast the machine happens to be.
var perSecond = map[string]int{
	"ppi-motif":      300,
	"dblp-cluster":   36,
	"dblp-readwrite": 50,
}

// requestCount is the fixed length of a run's replayed sequence.
func requestCount(workload string, seconds int) int {
	return seconds * perSecond[workload]
}

// motifProgram renders a pattern as a unique FLWR program: the pattern
// variable carries the request ordinal, so no two programs share a
// result-cache key, while same-shaped patterns still share search plans.
func motifProgram(p *pattern.Pattern, ord int) string {
	name := fmt.Sprintf("Q%d", ord)
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {", name)
	m := p.Motif
	for i := 0; i < m.NumNodes(); i++ {
		fmt.Fprintf(&b, " node v%d <label=%q>;", i, m.Label(graph.NodeID(i)))
	}
	for _, e := range m.Edges() {
		fmt.Fprintf(&b, " edge (v%d, v%d);", e.From, e.To)
	}
	fmt.Fprintf(&b, " };\nfor %s exhaustive in doc(\"ppi\")\nreturn graph { node %s.v0; node %s.v1; };\n", name, name, name)
	return b.String()
}

// ppiRequests draws n unique clique programs of sizes 3–7 over g, each
// a clique sampled from the graph (so it has at least one answer), with a
// side write after every sideWriteEvery reads.
func ppiRequests(g *graph.Graph, n int, rng *rand.Rand) []request {
	out := make([]request, 0, n)
	reads := 0
	for len(out) < n {
		if reads > 0 && reads%sideWriteEvery == 0 && !out[len(out)-1].write {
			out = append(out, sideWrite(len(out)))
			continue
		}
		size := 3 + reads%5
		p := gen.GraphCliqueQuery(g, size, rng)
		for p == nil {
			size--
			p = gen.GraphCliqueQuery(g, size, rng)
		}
		out = append(out, request{src: motifProgram(p, len(out)), take: ppiTake})
		reads++
	}
	return out
}

// sideDocGraphs is the size of the side document the read-only workloads
// write to.
const sideDocGraphs = 8

// sideDoc is the small unqueried document the read-only workloads write
// to, so write latency is measured without touching the queried data.
func sideDoc() graph.Collection {
	out := make(graph.Collection, sideDocGraphs)
	for i := range out {
		g := graph.New(fmt.Sprintf("s%d", i))
		g.AddNode("root", graph.TupleOf("item", "k", i))
		out[i] = g
	}
	return out
}

// sideWrite inserts one node into a side-document graph.
func sideWrite(ord int) request {
	return request{write: true, take: -1, src: fmt.Sprintf(
		"insert node x%d <item k=%d> into s%d in doc(\"side\");\n", ord, ord, ord%sideDocGraphs)}
}

// authorName is the DBLP generator's name for author rank r.
func authorName(r int) string { return fmt.Sprintf("author%04d", r) }

// coauthorProgram returns the coauthor rows of one author.
func coauthorProgram(author string) string {
	return fmt.Sprintf(`for graph Q { node a <author name=%q>; node b <author>; } exhaustive in doc("dblp")
return graph R <coauthor venue=Q.booktitle, year=Q.year> { node Q.a; node Q.b; };
`, author)
}

// venueYears is the width of a venue query's year window.
const venueYears = 3

// venueProgram returns the author rows of one venue over a window of
// years.
func venueProgram(venue string, year int) string {
	return fmt.Sprintf(`for graph Q { node a <author>; } exhaustive in doc("dblp")
where Q.booktitle = %q and Q.year >= %d and Q.year < %d
return graph R <paper venue=Q.booktitle, year=Q.year> { node Q.a; };
`, venue, year, year+venueYears)
}

// dblpRead draws one read program: the coauthors of an author drawn by
// pick, or the authors of a uniformly drawn venue and year window.
func dblpRead(venue bool, pick func() int, rng *rand.Rand) string {
	if !venue {
		return coauthorProgram(authorName(pick()))
	}
	return venueProgram(venues[rng.Intn(len(venues))], 1995+rng.Intn(14-venueYears+1))
}

// venueSlot reports whether read j of a DBLP sequence is a venue query.
// Reads cycle through four slots with one venue query among them, so a
// run's mix is fixed: the venue queries (the slower miss mode, with more
// rows) make up the top quarter of the reads and the read p50 falls
// inside the author-query mode instead of on the boundary between them.
func venueSlot(j int) bool { return j%4 == 2 }

// lru models the frontend result cache: capacity-bounded, Get refreshes
// recency, every miss fills (dblp-cluster reads are untruncated).
type lru struct {
	cap   int
	order *list.List
	at    map[string]*list.Element
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), at: map[string]*list.Element{}}
}

func (c *lru) has(k string) bool { _, ok := c.at[k]; return ok }

// touch records one lookup of k: a hit refreshes it, a miss fills it and
// evicts the least recently used entry past capacity.
func (c *lru) touch(k string) {
	if el, ok := c.at[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.at[k] = c.order.PushFront(k)
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.at, old.Value.(string))
	}
}

// clusterRequests builds the dblp-cluster sequence. Reads cycle through
// four slots: a repeat that hits the result cache, an author query, a
// venue query and an author query, the last three all misses. Programs
// are drawn as in dblpRead, so Zipf-head authors recur; a draw is kept
// only if its cache outcome (per the LRU model) is the one the slot calls
// for, which pins the hit share on every seed. The first resultCacheCap
// reads, while the cache fills, are all misses.
func clusterRequests(n int, rng *rand.Rand) []request {
	z := gen.NewZipf(dblpAuthors, rng)
	c := newLRU(resultCacheCap)
	out := make([]request, 0, n)
	reads := 0
	for len(out) < n {
		if reads > 0 && reads%sideWriteEvery == 0 && !out[len(out)-1].write {
			out = append(out, sideWrite(len(out)))
			continue
		}
		wantHit := reads >= resultCacheCap && reads%4 == 0
		var src string
		for {
			venue := venueSlot(reads)
			if wantHit {
				venue = rng.Intn(2) == 0
			}
			src = dblpRead(venue, z.Next, rng)
			if c.has(src) == wantHit {
				break
			}
		}
		c.touch(src)
		out = append(out, request{src: src, take: -1, wantHit: wantHit})
		reads++
	}
	return out
}

// readWriteRequests alternates fsynced write batches with dblp reads.
// Each batch creates a new paper graph and inserts an author node into an
// existing paper, both with Zipf-drawn authors. The reads draw authors
// uniformly: with every read a cache miss nothing rewards the Zipf head,
// and its few authors with thousands of rows would otherwise make up the
// whole read tail. (On dblp-cluster the head is what the cache serves.)
func readWriteRequests(n int, rng *rand.Rand) []request {
	z := gen.NewZipf(dblpAuthors, rng)
	uniform := func() int { return rng.Intn(dblpAuthors) }
	out := make([]request, 0, n)
	for len(out) < n {
		i := len(out)
		if i%2 == 0 {
			src := fmt.Sprintf("create graph w%d <inproceedings booktitle=%q, year=%d> { node a <author name=%q>; node b <author name=%q>; } in doc(\"dblp\");\n"+
				"insert node x%d <author name=%q> into paper%d in doc(\"dblp\");\n",
				i, venues[rng.Intn(len(venues))], 1995+rng.Intn(14), authorName(z.Next()), authorName(z.Next()),
				i, authorName(z.Next()), rng.Intn(dblpPapers))
			out = append(out, request{write: true, src: src, take: -1})
			continue
		}
		out = append(out, request{src: dblpRead(venueSlot(i/2), uniform, rng), take: -1})
	}
	return out
}
