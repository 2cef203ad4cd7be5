// Command perfbench is the repository's serving benchmark. It starts an
// in-process zidian server with zidian-server's shipping defaults, drives
// it over loopback TCP with the wire client as a closed loop of 2
// connections, checks the answers against the reference evaluator, and
// prints one JSON result line: the end-to-end metrics of a timed run
// (-trace 0), or the per-layer metrics of a traced run (-trace 1).
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 12 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"zidian/internal/relation"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run, as a user of the server sees
// them.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"read_p50_us", "us"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_stmt", "us"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"store_bytes_per_user_byte", "ratio"},
}

// perLayer are the metrics of a traced run, one or more per layer.
var perLayer = []metricDef{
	{"server.wire_us", "us"},
	{"server.query_us", "us"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.errors_admission", "count"},
	{"server.errors_statement", "count"},
	{"server.read_p95_us", "us"},
	{"server.read_p99_us", "us"},
	{"server.write_p50_us", "us"},
	{"server.write_p99_us", "us"},
	{"sql.parse_us", "us"},
	{"core.prepare_us", "us"},
	{"core.scan_free_ratio", "ratio"},
	{"parallel.run_us", "us"},
	{"parallel.shuffle_bytes_per_stmt", "bytes"},
	{"index.postings_per_stmt", "count"},
	{"index.lookup_us", "us"},
	{"baav.blocks_per_stmt", "count"},
	{"baav.data_values_per_stmt", "count"},
	{"baav.decode_block_us", "us"},
	{"baav.commit_wait_us", "us"},
	{"baav.mvcc_live_versions", "count"},
	{"kv.ops_per_stmt", "count"},
	{"kv.gets_per_stmt", "count"},
	{"kv.bytes_read_per_stmt", "bytes"},
	{"kv.wait_us_per_stmt", "us"},
	{"kv.node_max_share", "ratio"},
	{"kv.get_us", "us"},
	{"process.alloc_bytes_per_stmt", "bytes"},
	{"process.gc_cpu_fraction", "ratio"},
	{"trace.overhead_us", "us"},
	{"trace.stmts", "count"},
	{"trace.spans", "count"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	commit   string
	// setups is how many times a timed run sets up; setup_s is the median.
	setups int
	warmup time.Duration
	// window is the sampling interval behind the qps and CPU medians.
	window time.Duration
	// scale overrides the workload's dataset scale when positive.
	scale float64
	// plant, when set, edits the gate's oracle answers before the gate
	// runs; the self-test plants a wrong answer through it.
	plant func([]gateCase)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values   map[string]float64
	problems []string
	report   []string
	spans    []span
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// finish fills Metrics from the recorded values for the given metric
// set and settles Correct.
func (r *result) finish(defs []metricDef) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			r.problem("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
}

func main() {
	cfg := config{setups: 5, warmup: 2 * time.Second, window: 500 * time.Millisecond}
	flag.StringVar(&cfg.workload, "workload", "point", "workload: point, adhoc, range_rtt or rw_rtt")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset and the statement streams")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout being measured")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the checkout, recorded in the run envelope")
	flag.Parse()
	cfg.trace = *trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark invocation and returns its result; a
// non-nil error means the benchmark itself could not run.
func run(cfg config) (*result, error) {
	spec, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.scale > 0 {
		spec.scale = cfg.scale
	}
	meta := newEnvelope(cfg.root, cfg.commit, spec, cfg.seed, int(cfg.seconds), cfg.trace)
	res := &result{values: map[string]float64{}}
	envJSON, _ := json.Marshal(meta)
	res.note("envelope %s", envJSON)

	// Set up cfg.setups times in a timed run; keep the last deployment.
	setups := 1
	if !cfg.trace {
		setups = max(cfg.setups, 1)
	}
	var e *env
	var took []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var d time.Duration
		if e, d, err = setUp(spec, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, d.Seconds())
	}
	defer e.close()
	res.set("setup_s", median(took))
	res.note("setup_s %.4f (median of %d set-ups: %v)", median(took), len(took), took)

	// Correctness gate, before timing.
	cases, err := gateCases(e, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.plant != nil {
		cfg.plant(cases)
	}
	gate := func(when string) error {
		n, bad, err := runGate(e.addr, cases)
		if err != nil {
			return err
		}
		res.Attempted += int64(n)
		res.Failed += int64(len(bad))
		for _, b := range bad {
			res.problem("gate %s: wrong answer: %s", when, b)
		}
		res.note("gate %s: %d statements checked against ra.Evaluate, %d wrong", when, n, len(bad))
		return nil
	}
	if err := gate("before"); err != nil {
		return nil, err
	}

	gens := make([]*generator, clients)
	for i := range gens {
		gens[i] = newGenerator(spec, e.doms, cfg.seed, i)
	}
	if _, err := runLoop(e.addr, gens, cfg.warmup, cfg.window, sendWire); err != nil {
		return nil, err
	}
	measured := time.Duration(cfg.seconds * float64(time.Second))

	if cfg.trace {
		if err := tracedRun(cfg, e, gens, measured, res); err != nil {
			return nil, err
		}
	} else {
		lr, err := runLoop(e.addr, gens, measured, cfg.window, sendWire)
		if err != nil {
			return nil, err
		}
		loopOutcome(res, "timed", lr)
		res.set("qps", lr.qps())
		res.set("read_p50_us", quantileUS(lr.reads, 0.50))
		res.set("cpu_us_per_stmt", lr.cpuPerStmt())
		res.note("timed: %d statements in %v; reads p50 %.1fus p95 %.1fus p99 %.1fus p99.9 %.1fus over %d samples; writes p50 %.1fus p99 %.1fus over %d samples",
			lr.attempted, lr.elapsed.Round(time.Millisecond), quantileUS(lr.reads, 0.5), quantileUS(lr.reads, 0.95),
			quantileUS(lr.reads, 0.99), quantileUS(lr.reads, 0.999), len(lr.reads),
			quantileUS(lr.writes, 0.5), quantileUS(lr.writes, 0.99), len(lr.writes))
		res.note("timed: %s", lr.windowSummary())

		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.set("heap_live_mb", float64(ms.HeapAlloc)/1e6)
		res.set("store_bytes_per_user_byte", storeRatio(e))
	}

	// After the run: the gate again, then every write read back.
	e.inst.Store().Cluster.SetServiceDelay(0)
	if err := gate("after"); err != nil {
		return nil, err
	}
	if len(spec.writes) > 0 {
		n, bad, err := verifyWrites(e.addr, spec, gens)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(n)
		res.Failed += int64(len(bad))
		for i, b := range bad {
			if i == 5 {
				res.problem("... %d more write read-back failures", len(bad)-5)
				break
			}
			res.problem("write read-back: %s", b)
		}
		res.note("writes: %d written ids read back, %d wrong", n, len(bad))
	}

	if cfg.trace {
		res.finish(perLayer)
	} else {
		if res.Attempted > 0 {
			res.set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		}
		res.finish(endToEnd)
	}
	if err := writeOutput(cfg, meta, res); err != nil {
		return nil, err
	}
	return res, nil
}

// loopOutcome folds a loop's statement counts and errors into the result.
func loopOutcome(res *result, phase string, lr *loopResult) {
	res.Attempted += lr.attempted
	res.Failed += lr.failed
	for _, e := range lr.firstErrs {
		res.problem("%s: statement failed: %s", phase, e)
	}
}

// storeRatio is the stored kv bytes over the encoded bytes of the user's
// tuples, both taken now.
func storeRatio(e *env) float64 {
	var user int64
	for _, name := range e.w.DB.Names() {
		for _, t := range e.w.DB.Relation(name).Tuples {
			user += int64(len(relation.EncodeTuple(t)))
		}
	}
	if user == 0 {
		return 0
	}
	return float64(e.inst.Store().Cluster.SizeBytes()) / float64(user)
}

// runtimeCounters reads the process's cumulative allocation and CPU
// counters from runtime/metrics.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// tracedRun measures the per-layer metrics: an untraced phase of half the
// measured time as the reference, then a traced phase of the other half in
// which every traceEvery-th statement of each client is replayed through
// the layers' entry points, then direct probes of the lower layers.
func tracedRun(cfg config, e *env, gens []*generator, measured time.Duration, res *result) error {
	a0, g0, c0 := runtimeCounters()
	base, err := runLoop(e.addr, gens, measured/2, cfg.window, sendWire)
	if err != nil {
		return err
	}
	a1, g1, c1 := runtimeCounters()
	loopOutcome(res, "untraced", base)

	t := newTracer(e)
	traced, err := runLoop(e.addr, gens, measured/2, cfg.window, t.send(make([]int, len(gens))))
	if err != nil {
		return err
	}
	loopOutcome(res, "traced", traced)

	idxUS, decUS, getUS, err := probes(e, cfg.seed)
	if err != nil {
		return err
	}
	live, _ := e.inst.MVCCVersions()

	ratio := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	res.set("server.wire_us", median(t.wireSelf))
	res.set("server.query_us", median(t.query))
	res.set("server.plan_cache_hit_ratio", ratio(base.cacheHits, base.answered))
	res.set("server.errors_admission", float64(base.admissionErrors+traced.admissionErrors))
	res.set("server.errors_statement", float64(base.statementErrors+traced.statementErrors))
	res.set("server.read_p95_us", quantileUS(base.reads, 0.95))
	res.set("server.read_p99_us", quantileUS(base.reads, 0.99))
	res.set("server.write_p50_us", quantileUS(base.writes, 0.50))
	res.set("server.write_p99_us", quantileUS(base.writes, 0.99))
	res.set("sql.parse_us", median(t.parse))
	res.set("core.prepare_us", median(t.prepare))
	res.set("core.scan_free_ratio", ratio(base.scanFree, base.answered))
	res.set("parallel.run_us", median(t.run))
	res.set("parallel.shuffle_bytes_per_stmt", ratio(t.shuffle, t.reads))
	res.set("index.postings_per_stmt", ratio(t.postings, t.reads))
	res.set("index.lookup_us", idxUS)
	res.set("baav.blocks_per_stmt", ratio(t.blocks, t.reads))
	res.set("baav.data_values_per_stmt", ratio(t.dataValues, t.reads))
	res.set("baav.decode_block_us", decUS)
	res.set("baav.commit_wait_us", median(t.commitWait))
	res.set("baav.mvcc_live_versions", float64(live))
	res.set("kv.ops_per_stmt", ratio(ops(t.clusterKV), t.kvCalls))
	res.set("kv.gets_per_stmt", ratio(t.clusterKV.Gets, t.kvCalls))
	res.set("kv.bytes_read_per_stmt", ratio(t.clusterKV.BytesRead, t.kvCalls))
	res.set("kv.wait_us_per_stmt", ratio(t.kvWaitNanos, t.reads)/1e3)
	var maxNode, allNodes int64
	for _, n := range t.nodeOps {
		maxNode = max(maxNode, n)
		allNodes += n
	}
	res.set("kv.node_max_share", ratio(maxNode, allNodes))
	res.set("kv.get_us", getUS)
	res.set("process.alloc_bytes_per_stmt", (a1-a0)/float64(max(base.attempted, 1)))
	if c1 > c0 {
		res.set("process.gc_cpu_fraction", (g1-g0)/(c1-c0))
	} else {
		res.set("process.gc_cpu_fraction", 0)
	}
	res.set("trace.overhead_us", quantileUS(traced.reads, 0.5)-quantileUS(base.reads, 0.5))
	res.set("trace.stmts", float64(t.stmts))
	res.set("trace.spans", float64(len(t.spans)))
	res.spans = t.spans

	res.note("untraced: %d statements; reads p50 %.1fus over %d samples; writes p50 %.1fus p99 %.1fus over %d samples",
		base.attempted, quantileUS(base.reads, 0.5), len(base.reads),
		quantileUS(base.writes, 0.5), quantileUS(base.writes, 0.99), len(base.writes))
	res.note("traced: %d statements, %d replayed through the layers (%d reads); reads p50 %.1fus over %d samples",
		traced.attempted, t.stmts, t.reads, quantileUS(traced.reads, 0.5), len(traced.reads))
	res.note("conservation: trace kv %+v, cluster delta %+v over %d traced calls (%d left out: background sweep ran)",
		t.traceKV.Snapshot(), t.clusterKV, t.kvCalls, t.excluded)
	if t.mismatches > 0 {
		res.problem("kv count conservation: %d traced calls disagree with the cluster delta, first: %s", t.mismatches, t.firstMismatch)
	}
	for _, a := range t.answers {
		res.problem("traced replay: %s", a)
	}
	if t.stmts == 0 {
		res.problem("traced phase replayed no statement")
	}
	return nil
}

// writeOutput writes the full result, the envelope and, for a traced run,
// the span dump under .bench_build/perfbench/out in the checkout.
func writeOutput(cfg config, meta envelope, res *result) error {
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "timed"
	if cfg.trace {
		kind = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, kind))
	doc := struct {
		Envelope envelope `json:"envelope"`
		Result   *result  `json:"result"`
		Report   []string `json:"report"`
		Problems []string `json:"problems,omitempty"`
	}{meta, res, res.report, res.problems}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	res.note("result written to %s.json", base)
	if !cfg.trace {
		return nil
	}
	b, err = json.Marshal(res.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", b, 0o644); err != nil {
		return err
	}
	res.note("span dump: %d spans written to %s-spans.json", len(res.spans), base)
	return nil
}
