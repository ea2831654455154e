package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/server"
	"gqldb/internal/shardsrv"
	"gqldb/internal/store"
)

// setupTimes splits one set-up into its phases (seconds).
type setupTimes struct {
	gen, load, sync, total float64
}

// stack is one running instance of a workload's served path: the engine,
// the HTTP frontend on loopback and, for dblp-cluster, the shard mirrors.
type stack struct {
	eng     *exec.Engine
	srv     *server.Server
	front   *httptest.Server
	mirrors []*httptest.Server
	durable *store.Durable
	walDir  string
	times   setupTimes

	// accessLogs and slowQueries count the frontend's log records instead
	// of writing them, so no log I/O lands in the timed path.
	accessLogs  atomic.Int64
	slowQueries atomic.Int64

	// tracer is non-nil on a traced stack.
	tracer *tracer
}

// stackConfig is what a set-up needs besides the workload name.
type stackConfig struct {
	workload string
	seed     int64
	workdir  string
	tracer   *tracer
}

// dataSeed derives the dataset seed; the request sequence uses seed
// itself, so the two streams are independent.
func dataSeed(seed int64) int64 { return seed*1000003 + 17 }

// ppiSeed fixes the protein network: like the paper's yeast network it is
// one dataset, and only the queries drawn over it vary with --seed. (The
// hub structure of a preferential-attachment graph differs enough between
// seeds to move the median clique cost by about 15%.)
const ppiSeed = 2008

// ppiData generates the ppi-motif document.
func ppiData() *graph.Graph { return gen.YeastPPI(ppiSeed) }

// dblpData generates the DBLP collection shared by both DBLP workloads.
func dblpData(seed int64) graph.Collection {
	return gen.DBLP(dblpPapers, dblpAuthors, venues, dataSeed(seed))
}

// newEngine returns the served engine configuration shared by every
// workload: GOMAXPROCS fan-out, result and plan caches, counting log sinks.
func (s *stack) newEngine(docs store.Store) *exec.Engine {
	eng := exec.NewOver(docs)
	eng.Workers = -1
	eng.Cache = store.NewCache(resultCacheCap)
	eng.Plans = match.NewPlanCache(planCacheCap)
	eng.SlowQuery = time.Second
	eng.SlowQueryLog = func(obs.SlowQueryRecord) { s.slowQueries.Add(1) }
	return eng
}

// startStack generates the workload's data, loads it, starts the servers
// and finishes any warm-up, timing each phase.
func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{tracer: cfg.tracer}
	t0 := time.Now()
	var err error
	switch cfg.workload {
	case "ppi-motif":
		err = s.startPPI(cfg, t0)
	case "dblp-cluster":
		err = s.startCluster(cfg, t0)
	case "dblp-readwrite":
		err = s.startReadWrite(cfg, t0)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.times.total = time.Since(t0).Seconds()
	return s, nil
}

// serve starts the HTTP frontend over eng.
func (s *stack) serve(eng *exec.Engine) {
	s.eng = eng
	s.srv = server.New(server.Config{
		Engine:    eng,
		Admin:     true,
		AccessLog: func(server.AccessRecord) { s.accessLogs.Add(1) },
	})
	s.front = httptest.NewServer(s.srv)
}

func (s *stack) startPPI(cfg stackConfig, t0 time.Time) error {
	g := ppiData()
	side := sideDoc()
	t1 := time.Now()
	s.times.gen = t1.Sub(t0).Seconds()
	docs := store.New(store.Options{})
	docs.RegisterDoc("ppi", graph.NewCollection(g))
	docs.RegisterDoc("side", side)
	eng := s.newEngine(s.wrapStore(docs))
	eng.Opts = match.Optimized()
	s.serve(eng)
	s.times.load = time.Since(t1).Seconds()
	return nil
}

func (s *stack) startCluster(cfg stackConfig, t0 time.Time) error {
	coll := dblpData(cfg.seed)
	side := sideDoc()
	t1 := time.Now()
	s.times.gen = t1.Sub(t0).Seconds()
	docs := store.New(store.Options{Shards: dblpShards})
	docs.RegisterDoc("dblp", coll)
	docs.RegisterDoc("side", side)
	endpoints := make([]string, mirrors)
	for i := range endpoints {
		var h http.Handler = shardsrv.New(shardsrv.Config{Shards: dblpShards, IndexMaxLen: dblpIndex})
		if s.tracer != nil {
			h = s.tracer.wrapMirror(h)
		}
		hs := httptest.NewServer(h)
		s.mirrors = append(s.mirrors, hs)
		endpoints[i] = hs.URL
	}
	rs := store.NewRemoteSelector(endpoints)
	eng := s.newEngine(s.wrapStore(docs))
	eng.Selector = rs
	s.serve(eng)
	t2 := time.Now()
	s.times.load = t2.Sub(t1).Seconds()
	// The mirrors start empty: one zero-row, zero-take read pushes the
	// document to every mirror through the version handshake, so the
	// timed phase starts converged (and the take of 0 leaves the result
	// cache empty).
	if err := warmUp(s.front.URL); err != nil {
		return err
	}
	s.times.sync = time.Since(t2).Seconds()
	return nil
}

func (s *stack) startReadWrite(cfg stackConfig, t0 time.Time) error {
	coll := dblpData(cfg.seed)
	t1 := time.Now()
	s.times.gen = t1.Sub(t0).Seconds()
	// Stacks of one run never overlap, so one directory per process is
	// enough; it is emptied here and removed by close.
	s.walDir = filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.RemoveAll(s.walDir); err != nil {
		return err
	}
	d, err := store.OpenDurable(
		store.Options{Shards: dblpShards, IndexMaxLen: dblpIndex},
		store.DurableOptions{
			Dir:             s.walDir,
			Sync:            true,
			CheckpointEvery: checkpointEvery,
			Bootstrap: func(ds *store.DocStore) error {
				ds.RegisterDoc("dblp", coll)
				return nil
			},
		})
	if err != nil {
		return err
	}
	s.durable = d
	s.serve(s.newEngine(s.wrapStore(d)))
	s.times.load = time.Since(t1).Seconds()
	return nil
}

// wrapStore returns the store the engine reads: the store itself, or on a
// traced stack a wrapper that times every write batch.
func (s *stack) wrapStore(docs mutableStore) store.Store {
	if s.tracer == nil {
		return docs
	}
	return &timedStore{mutableStore: docs, t: s.tracer}
}

// warmUp sends the zero-take read that converges the mirrors.
func warmUp(base string) error {
	c := newClient(base)
	defer c.close()
	r := c.do(request{src: venueProgram("SIGMOD", 1900), take: 0})
	if r.err != nil {
		return fmt.Errorf("mirror warm-up: %w", r.err)
	}
	return nil
}

// close stops every server of the stack and removes its WAL directory.
func (s *stack) close() {
	if s.srv != nil {
		s.srv.CancelInflight()
	}
	if s.front != nil {
		s.front.Close()
	}
	for _, m := range s.mirrors {
		m.Close()
	}
	if s.durable != nil {
		_ = s.durable.Close() // the directory is removed next
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir) // holds only this run's state
	}
}

// walBytes returns the current sizes of the WAL and the checkpoint file.
func (s *stack) walBytes() (wal, snap int64) {
	if s.walDir == "" {
		return 0, 0
	}
	if fi, err := os.Stat(filepath.Join(s.walDir, "wal.log")); err == nil {
		wal = fi.Size()
	}
	if fi, err := os.Stat(filepath.Join(s.walDir, "snapshot.bin")); err == nil {
		snap = fi.Size()
	}
	return wal, snap
}

// sequence builds the workload's replayed request sequence.
func sequence(workload string, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "ppi-motif":
		return ppiRequests(ppiData(), n, rng)
	case "dblp-cluster":
		return clusterRequests(n, rng)
	default:
		return readWriteRequests(n, rng)
	}
}

// warmUpSeconds is how many nominal seconds of reads precede the timed
// pass, so the heap, the connections and the plan caches have reached
// their steady state when timing starts.
const warmUpSeconds = 2

// warmUpSequence draws the warm-up reads from a stream independent of the
// timed sequence. Every read carries an explicit take no smaller than its
// result, so it does the full work of a read but never fills the result
// cache: the timed pass starts with the cache its model assumes (empty).
// Writes are left out, so the store stays at the state the oracle starts
// from.
func warmUpSequence(workload string, seed int64) []request {
	n := warmUpSeconds * perSecond[workload]
	var out []request
	for _, r := range sequence(workload, ^seed, 2*n) {
		if r.write || len(out) == n {
			continue
		}
		if r.take < 0 {
			r.take = math.MaxInt32
		}
		out = append(out, r)
	}
	return out
}
