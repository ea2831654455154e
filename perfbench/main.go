// Command perfbench is the served-path benchmark of gqldb. It builds one
// of three seeded workloads, starts the real HTTP frontend (and, for the
// cluster workload, three shard mirrors) on loopback in this process,
// replays a fixed request sequence through one closed-loop client, checks
// every answer against a serial, unsharded, uncached oracle, and prints
// one JSON result line.
//
//	perfbench --workload ppi-motif|dblp-cluster|dblp-readwrite \
//	          --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced pass.
// NOTES.md beside this file records why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// rounds is how many times a run sets its stack up and replays the
// sequence on it. Every reported end-to-end figure is the median over the
// rounds, so a burst of contention on the machine that slows one round
// does not move the result.
const rounds = 3

// setupSamples is how many set-ups a run times; setup_s is their median.
// The rounds' set-ups are the last of them.
const setupSamples = 7

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "ppi-motif, dblp-cluster or dblp-readwrite")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated data and request sequence")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed pass; fixes the request count")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced pass")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the WAL of dblp-readwrite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := perSecond[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (ppi-motif|dblp-cluster|dblp-readwrite), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	reqs := sequence(o.workload, o.seed, requestCount(o.workload, o.seconds)/rounds)
	warm := warmUpSequence(o.workload, o.seed)

	var times []setupTimes
	for i := 0; i < setupSamples-rounds; i++ {
		runtime.GC()
		st, err := startStack(stackConfig{workload: o.workload, seed: o.seed, workdir: o.workdir})
		if err != nil {
			return nil, err
		}
		times = append(times, st.times)
		st.close()
	}
	var passes []*passResult
	for i := 0; i < rounds; i++ {
		runtime.GC()
		st, err := startStack(stackConfig{workload: o.workload, seed: o.seed, workdir: o.workdir})
		if err != nil {
			return nil, err
		}
		times = append(times, st.times)
		u, err := replay(st, warm, reqs)
		st.close()
		if err != nil {
			return nil, err
		}
		passes = append(passes, u)
	}

	want, err := expect(o.workload, o.seed, reqs)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: rounds * len(reqs), Metrics: map[string]metric{}}
	for _, u := range passes {
		u.failed = mismatches(reqs, want, u.resp)
		res.Failed += u.failed
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "perfbench: %s seed=%d rounds=%d requests/round=%d failed=%d\n",
		o.workload, o.seed, rounds, len(reqs), res.Failed)

	if !o.trace {
		endToEnd(res.Metrics, times, passes)
		logSamples(log, reqs, passes)
		return res, nil
	}

	// The tracing overhead compares two direct passes on fresh stacks: one
	// untraced, one traced.
	base, err := directRun(o, warm, reqs, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	t, err := directRun(o, warm, reqs, tr)
	if err != nil {
		return nil, err
	}
	perLayer(res.Metrics, times, passes, base, t, tr)
	return res, nil
}

// directRun sets up a fresh stack, traced when tr is set, and makes one
// direct pass over it.
func directRun(o options, warm, reqs []request, tr *tracer) (*directResult, error) {
	runtime.GC()
	st, err := startStack(stackConfig{workload: o.workload, seed: o.seed, workdir: o.workdir, tracer: tr})
	if err != nil {
		return nil, err
	}
	defer st.close()
	return directPass(st, warm, reqs, tr != nil)
}

// medianTimes returns the per-phase medians of the set-ups.
func medianTimes(ts []setupTimes) setupTimes {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		return median(xs)
	}
	return setupTimes{
		gen:   pick(func(t setupTimes) float64 { return t.gen }),
		load:  pick(func(t setupTimes) float64 { return t.load }),
		sync:  pick(func(t setupTimes) float64 { return t.sync }),
		total: pick(func(t setupTimes) float64 { return t.total }),
	}
}

// acrossRounds returns the median over the passes of one per-pass figure.
func acrossRounds(passes []*passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEnd fills the metrics a user of the server sees, all from the
// untraced passes: each is computed per pass, and the median over the
// passes is reported.
func endToEnd(m map[string]metric, times []setupTimes, passes []*passResult) {
	readP := func(q float64) func(*passResult) float64 {
		return func(p *passResult) float64 {
			reads, _ := p.latencies()
			v, _ := percentile(reads, q)
			return v
		}
	}
	m["setup_s"] = metric{medianTimes(times).total, "s"}
	m["qps"] = metric{acrossRounds(passes, func(p *passResult) float64 {
		return ratio(float64(len(p.resp)), p.busy.Seconds())
	}), "1/s"}
	m["read_p50_ms"] = metric{acrossRounds(passes, readP(50)), "ms"}
	m["read_p90_ms"] = metric{acrossRounds(passes, readP(90)), "ms"}
	m["write_p50_ms"] = metric{acrossRounds(passes, func(p *passResult) float64 {
		_, writes := p.latencies()
		v, _ := percentile(writes, 50)
		return v
	}), "ms"}
	m["success_rate"] = metric{acrossRounds(passes, func(p *passResult) float64 {
		return ratio(float64(len(p.resp)-p.failed), float64(len(p.resp)))
	}), "ratio"}
	m["alloc_mb_per_req"] = metric{acrossRounds(passes, func(p *passResult) float64 {
		return ratio(float64(p.allocBytes), float64(len(p.resp))) / (1 << 20)
	}), "MB"}
	m["live_heap_mb"] = metric{acrossRounds(passes, func(p *passResult) float64 {
		return float64(p.liveHeap) / (1 << 20)
	}), "MB"}
}

// logSamples states, per round, the sample counts behind the
// percentiles, the cache hits against the sequence's plan, and the log
// records the frontend produced.
func logSamples(log io.Writer, reqs []request, passes []*passResult) {
	for i, p := range passes {
		reads, writes := p.latencies()
		hits, offPlan := 0, 0
		for j, r := range p.resp {
			if r.cacheHit {
				hits++
			}
			if !r.write && r.cacheHit != reqs[j].wantHit {
				offPlan++
			}
		}
		p50, _ := percentile(reads, 50)
		p90, _ := percentile(reads, 90)
		fmt.Fprintf(log, "perfbench: round %d: reads=%d (p50 %.2fms, p90 %.2fms with %d beyond; %d cache hits, %d off plan) writes=%d busy=%.2fs access-log=%d slow=%d\n",
			i, len(reads), p50, p90, beyond(len(reads), 90), hits, offPlan, len(writes), p.busy.Seconds(), p.accessLogs, p.slowQueries)
	}
}

func init() {
	// A fixed GC target keeps allocation and heap figures comparable
	// across runs whatever GOGC the environment sets.
	debug.SetGCPercent(100)
}
