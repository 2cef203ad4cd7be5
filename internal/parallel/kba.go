package parallel

import (
	"fmt"
	"strconv"
	"time"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/obs"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// RunKBA executes a generated KBA plan with the interleaved parallel
// strategy (Section 7.2) over the given number of workers and shapes the
// relational answer. When t is non-nil, operator spans record rows, wall
// time, inclusive kv deltas, and the worker fan-out with per-worker row
// counts; a nil trace costs nothing.
func RunKBA(info *core.PlanInfo, store *baav.Store, workers int, t *obs.Trace) (*ra.Result, *Metrics, error) {
	return runPlan(info, &kbaExec{store: store, workers: workers, minRows: inlineRows, trace: t})
}

// runPlan executes info's plan on e and shapes the answer straight from the
// output partitions. It clamps the worker count and short-cuts the empty
// plan; the metrics cover the whole call.
func runPlan(info *core.PlanInfo, e *kbaExec) (*ra.Result, *Metrics, error) {
	e.workers = max(e.workers, 1)
	start := time.Now()
	if info.Empty {
		res, err := info.ToResult(nil, nil)
		return res, &Metrics{Workers: e.workers, Wall: time.Since(start)}, err
	}
	v, err := e.run(info.Root)
	if err != nil {
		return nil, nil, err
	}
	res, err := info.ToResult(v.attrs, v.rows())
	if err != nil {
		return nil, nil, err
	}
	return res, e.c.metrics(e.workers, time.Since(start)), nil
}

type kbaExec struct {
	store   *baav.Store
	workers int
	// minRows sizes the fan-out of CPU-only operators (see goroutines):
	// inlineRows for RunKBA; 0 gives one goroutine per partition, the
	// schedule the baselines keep.
	minRows int
	c       counters
	// fetchAll flattens ∝ into retrieve-then-join (the Section 7.1
	// strawman) instead of the interleaved strategy.
	fetchAll bool
	// trace, when set, records operator spans and statement counters. The
	// span stack stays single-goroutine: run recurses on the driving
	// goroutine only, and fanOut joins its goroutines before the operator
	// returns, so every span opens and finishes on that goroutine.
	trace *obs.Trace
}

// kv returns the kv-op sink threaded into store calls; nil untraced.
func (e *kbaExec) kv() *obs.KV { return e.trace.KVCounters() }

// forRows runs fn once per partition of a CPU-only operator body that
// touches rows rows, on as many goroutines as that input pays for.
func (e *kbaExec) forRows(rows int, fn func(w int) error) error {
	return fanOut(e.workers, goroutines(e.workers, rows, e.minRows), fn)
}

// run executes a node under an operator span. Workers fan out only inside
// exec, so span open/close stays on the driving goroutine; litPlan wrappers
// (already computed intermediates) get no span of their own.
func (e *kbaExec) run(p kba.Plan) (*pval, error) {
	if l, ok := p.(*litPlan); ok {
		return l.v, nil
	}
	span := e.trace.StartOpLazy(kba.OpName(p), func() string { return kba.NodeLabel(p) })
	v, err := e.exec(p)
	rows := 0
	if v != nil {
		if span != nil {
			span.Workers = e.workers
			span.PerWorker = make([]int64, len(v.parts))
			for w, part := range v.parts {
				span.PerWorker[w] = int64(len(part))
				rows += len(part)
			}
		} else {
			for _, part := range v.parts {
				rows += len(part)
			}
		}
	}
	e.trace.FinishOp(span, rows)
	return v, err
}

func (e *kbaExec) exec(p kba.Plan) (*pval, error) {
	switch n := p.(type) {
	case *litPlan:
		return n.v, nil
	case *kba.Const:
		return e.runConst(n)
	case *kba.ScanKV:
		return e.runScan(n)
	case *kba.IndexLookup:
		return e.runIndexLookup(n)
	case *kba.IndexRange:
		return e.runIndexRange(n)
	case *kba.Extend:
		if e.fetchAll {
			return e.runExtendFetchAll(n)
		}
		return e.runExtend(n)
	case *kba.Shift:
		return e.runShift(n)
	case *kba.Join:
		return e.runJoin(n)
	case *kba.Select:
		return e.runSelect(n)
	case *kba.Project:
		return e.runProject(n)
	case *kba.Distinct:
		return e.runDistinct(n)
	case *kba.Union:
		return e.runUnion(n)
	case *kba.Diff:
		return e.runDiff(n)
	case *kba.GroupBy:
		return e.runGroupBy(n)
	case *kba.StatsAgg:
		return e.runStatsAgg(n)
	default:
		return nil, fmt.Errorf("parallel: unknown plan node %T", p)
	}
}

func (e *kbaExec) runConst(n *kba.Const) (*pval, error) {
	if len(n.Args) > 0 {
		return nil, fmt.Errorf("parallel: plan template has unbound parameters (call Bind before executing)")
	}
	out := newPval(append([]string{}, n.KeyAttrs...), e.workers)
	all := make([]int, len(n.KeyAttrs))
	for i := range all {
		all[i] = i
	}
	for _, k := range n.Keys {
		if len(k) != len(n.KeyAttrs) {
			return nil, fmt.Errorf("parallel: constant arity mismatch")
		}
		w := 0
		if len(all) > 0 {
			w = hashTuple(k, all, e.workers)
		}
		out.parts[w] = append(out.parts[w], k)
	}
	return out, nil
}

func (e *kbaExec) runScan(n *kba.ScanKV) (*pval, error) {
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, fmt.Errorf("parallel: unknown KV schema %q", n.KV)
	}
	attrs := append(qualify(n.Alias, kvSchema.Key), qualify(n.Alias, kvSchema.Val)...)
	out := newPval(attrs, e.workers)
	nodes := e.store.Cluster.NodeCount()
	// Each storage node is scanned on its own goroutine whatever the worker
	// count, so the nodes' round trips overlap; node n's rows then fill
	// partition n % workers in node order — scan output starts partitioned
	// by storage layout. perNode records each node's row contribution for
	// the span's fan-out annotation.
	perNode := make([]int64, nodes)
	byNode := make([][]relation.Tuple, nodes)
	err := fanOut(nodes, nodes, func(node int) error {
		var local []relation.Tuple
		var data, fetch int64
		err := e.store.ScanInstanceNodeT(e.kv(), node, n.KV, func(key relation.Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
			rows := blk.Expand()
			e.trace.CountBlocks(1)
			data += int64(len(rows)*len(kvSchema.Val) + len(key))
			fetch += int64(key.SizeBytes())
			for _, r := range rows {
				fetch += int64(r.SizeBytes())
				local = append(local, key.Concat(r))
			}
			return true
		})
		perNode[node] = int64(len(local))
		byNode[node] = local
		e.c.data.Add(data)
		e.c.fetch.Add(fetch)
		return err
	})
	for node, rows := range byNode {
		if w := node % e.workers; out.parts[w] == nil {
			out.parts[w] = rows
		} else {
			out.parts[w] = append(out.parts[w], rows...)
		}
	}
	e.trace.AnnotateNodes(perNode, nil)
	return out, err
}

func errUnknownKV(name string) error {
	return fmt.Errorf("parallel: unknown KV schema %q", name)
}

func qualify(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

// runIndexLookup fetches every constant's posting list in one batched
// cluster round (the point gets group by owning node) and partitions the
// (value, block key) rows by their full content, so the downstream ∝ starts
// from an even spread of probe keys.
func (e *kbaExec) runIndexLookup(n *kba.IndexLookup) (*pval, error) {
	if len(n.Args) > 0 {
		return nil, fmt.Errorf("parallel: plan template has unbound parameters (call Bind before executing)")
	}
	if e.store.Index == nil {
		return nil, fmt.Errorf("parallel: plan uses index %q but the store has no index catalog", n.Index)
	}
	attrs := append([]string{n.ValAttr}, n.KeyAttrs...)
	out := newPval(attrs, e.workers)
	all := make([]int, len(attrs))
	for i := range all {
		all[i] = i
	}
	lists, gets, err := e.store.Index.LookupManyT(e.trace, n.Index, n.Values)
	if err != nil {
		return nil, err
	}
	var data int64
	for i, v := range n.Values {
		for _, k := range lists[i] {
			if len(k) != len(n.KeyAttrs) {
				return nil, fmt.Errorf("parallel: index %q posts %d key attributes, plan expects %d",
					n.Index, len(k), len(n.KeyAttrs))
			}
			row := relation.Tuple{v}.Concat(k)
			data += int64(len(row))
			w := hashTuple(row, all, e.workers)
			out.parts[w] = append(out.parts[w], row)
		}
	}
	e.c.gets.Add(int64(gets))
	e.c.data.Add(data)
	return out, nil
}

// runIndexRange performs the bounded ordered posting walk once (the walk is
// one cluster range scan; parallelizing it would not reduce its cost) and
// partitions the (value, block key) rows by full content, so the downstream
// ∝ starts from an even spread of probe keys exactly like an IndexLookup.
func (e *kbaExec) runIndexRange(n *kba.IndexRange) (*pval, error) {
	lo, hi, err := kba.RangeBounds(n)
	if err != nil {
		return nil, err
	}
	limit, err := kba.RangeWalkLimit(n)
	if err != nil {
		return nil, err
	}
	if e.store.Index == nil {
		return nil, fmt.Errorf("parallel: plan uses index %q but the store has no index catalog", n.Index)
	}
	vals, keys, scanned, err := e.store.Index.RangeLimitT(e.trace, n.Index, lo, hi, n.LoIncl, n.HiIncl, limit)
	if err != nil {
		return nil, err
	}
	attrs := append([]string{n.ValAttr}, n.KeyAttrs...)
	out := newPval(attrs, e.workers)
	all := make([]int, len(attrs))
	for i := range all {
		all[i] = i
	}
	var data int64
	for i, k := range keys {
		if len(k) != len(n.KeyAttrs) {
			return nil, fmt.Errorf("parallel: index %q posts %d key attributes, plan expects %d",
				n.Index, len(k), len(n.KeyAttrs))
		}
		row := relation.Tuple{vals[i]}.Concat(k)
		data += int64(len(row))
		w := hashTuple(row, all, e.workers)
		out.parts[w] = append(out.parts[w], row)
	}
	_ = scanned // physical scan steps are counted by the cluster's node metrics
	e.c.data.Add(data)
	return out, nil
}

// runExtend is the interleaved ∝: deduplicate the target keys across the
// whole input, fetch every needed block in one batched cluster round per
// owning node, then have workers expand their partitions against the shared
// read-only cache — the query fetches only the blocks it needs, and pays
// one storage round per node instead of one per distinct key.
func (e *kbaExec) runExtend(n *kba.Extend) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	if len(n.KeyFrom) != len(kvSchema.Key) {
		return nil, fmt.Errorf("parallel: extend key arity mismatch on %s", n.KV)
	}
	keyIdx, err := in.positions(n.KeyFrom)
	if err != nil {
		return nil, err
	}
	shuffled := repartition(in, keyIdx, &e.c.shuffle)

	// Collect the distinct probe keys across all partitions (order is
	// deterministic: partition-major, first occurrence wins).
	at := make(map[string]int)
	var keys []relation.Tuple
	for w := 0; w < e.workers; w++ {
		for _, row := range shuffled.parts[w] {
			key := row.Project(keyIdx)
			ks := relation.KeyString(key)
			if _, ok := at[ks]; !ok {
				at[ks] = len(keys)
				keys = append(keys, key)
			}
		}
	}
	blks, _, gets, err := e.store.GetBlocksT(e.kv(), n.KV, keys)
	if err != nil {
		return nil, err
	}
	e.c.gets.Add(int64(gets))
	cache := make(map[string][]relation.Tuple, len(keys))
	var data, fetch int64
	fetched := 0
	for i, key := range keys {
		var rows []relation.Tuple
		if blk := blks[i]; blk != nil {
			rows = blk.Expand()
			fetched += len(rows)
			e.trace.CountBlocks(1)
			data += int64(len(rows)*len(kvSchema.Val) + len(key))
			fetch += int64(key.SizeBytes())
			for _, r := range rows {
				fetch += int64(r.SizeBytes())
			}
		}
		cache[relation.KeyString(key)] = rows
	}
	e.c.data.Add(data)
	e.c.fetch.Add(fetch)

	outAttrs := append(append([]string{}, in.attrs...), qualify(n.Alias, kvSchema.Val)...)
	out := newPval(outAttrs, e.workers)
	// The expand phase touches every probe row and every fetched block row.
	err = e.forRows(shuffled.len()+fetched, func(w int) error {
		var local []relation.Tuple
		for _, row := range shuffled.parts[w] {
			for _, r := range cache[relation.KeyString(row.Project(keyIdx))] {
				local = append(local, row.Concat(r))
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

func (e *kbaExec) runShift(n *kba.Shift) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	keyIdx, err := in.positions(n.NewKey)
	if err != nil {
		return nil, err
	}
	return repartition(in, keyIdx, &e.c.shuffle), nil
}

func (e *kbaExec) runJoin(n *kba.Join) (*pval, error) {
	l, err := e.run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.run(n.R)
	if err != nil {
		return nil, err
	}
	if len(n.LOn) != len(n.ROn) {
		return nil, fmt.Errorf("parallel: join attribute lists differ in length")
	}
	lIdx, err := l.positions(n.LOn)
	if err != nil {
		return nil, err
	}
	rIdx, err := r.positions(n.ROn)
	if err != nil {
		return nil, err
	}
	ls := repartition(l, lIdx, &e.c.shuffle)
	rs := repartition(r, rIdx, &e.c.shuffle)
	out := newPval(append(append([]string{}, l.attrs...), r.attrs...), e.workers)
	err = e.forRows(ls.len()+rs.len(), func(w int) error {
		index := make(map[string][]relation.Tuple)
		for _, row := range rs.parts[w] {
			k := relation.KeyString(row.Project(rIdx))
			index[k] = append(index[k], row)
		}
		var local []relation.Tuple
		for _, row := range ls.parts[w] {
			k := relation.KeyString(row.Project(lIdx))
			for _, rr := range index[k] {
				local = append(local, row.Concat(rr))
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

func (e *kbaExec) runSelect(n *kba.Select) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	check, err := kba.CompilePreds(in.attrs, n.Preds)
	if err != nil {
		return nil, err
	}
	out := newPval(in.attrs, e.workers)
	err = e.forRows(in.len(), func(w int) error {
		var local []relation.Tuple
		for _, row := range in.parts[w] {
			if check(row) {
				local = append(local, row)
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

func (e *kbaExec) runProject(n *kba.Project) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	idx, err := in.positions(n.Attrs)
	if err != nil {
		return nil, err
	}
	out := newPval(append([]string{}, n.Attrs...), e.workers)
	err = e.forRows(in.len(), func(w int) error {
		local := make([]relation.Tuple, len(in.parts[w]))
		for i, row := range in.parts[w] {
			local[i] = row.Project(idx)
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

func (e *kbaExec) runDistinct(n *kba.Distinct) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	all := make([]int, len(in.attrs))
	for i := range all {
		all[i] = i
	}
	shuffled := repartition(in, all, &e.c.shuffle)
	out := newPval(in.attrs, e.workers)
	err = e.forRows(shuffled.len(), func(w int) error {
		seen := make(map[string]bool)
		var local []relation.Tuple
		for _, row := range shuffled.parts[w] {
			k := relation.KeyString(row)
			if !seen[k] {
				seen[k] = true
				local = append(local, row)
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

func (e *kbaExec) runUnion(n *kba.Union) (*pval, error) {
	l, err := e.run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.run(n.R)
	if err != nil {
		return nil, err
	}
	rIdx, err := r.positions(l.attrs)
	if err != nil {
		return nil, err
	}
	merged := newPval(l.attrs, e.workers)
	for w := 0; w < e.workers; w++ {
		merged.parts[w] = append(merged.parts[w], l.parts[w]...)
		for _, row := range r.parts[w] {
			merged.parts[w] = append(merged.parts[w], row.Project(rIdx))
		}
	}
	return e.runDistinct(&kba.Distinct{Input: &litPlan{merged}})
}

func (e *kbaExec) runDiff(n *kba.Diff) (*pval, error) {
	l, err := e.run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.run(n.R)
	if err != nil {
		return nil, err
	}
	rIdx, err := r.positions(l.attrs)
	if err != nil {
		return nil, err
	}
	all := make([]int, len(l.attrs))
	for i := range all {
		all[i] = i
	}
	ls := repartition(l, all, &e.c.shuffle)
	// Align and repartition the right side the same way.
	ra2 := newPval(l.attrs, e.workers)
	for w := 0; w < e.workers; w++ {
		for _, row := range r.parts[w] {
			ra2.parts[w] = append(ra2.parts[w], row.Project(rIdx))
		}
	}
	rs := repartition(ra2, all, &e.c.shuffle)
	out := newPval(l.attrs, e.workers)
	err = e.forRows(ls.len()+rs.len(), func(w int) error {
		drop := make(map[string]bool)
		for _, row := range rs.parts[w] {
			drop[relation.KeyString(row)] = true
		}
		seen := make(map[string]bool)
		var local []relation.Tuple
		for _, row := range ls.parts[w] {
			k := relation.KeyString(row)
			if !drop[k] && !seen[k] {
				seen[k] = true
				local = append(local, row)
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}

// litPlan wraps an already computed pval as a plan node so composed
// operators (union → distinct) can reuse the recursion.
type litPlan struct{ v *pval }

func (l *litPlan) Children() []kba.Plan { return nil }
func (l *litPlan) String() string       { return "lit" }

// runStatsAgg answers a group-by over a whole KV instance from per-block
// statistics, reading only block headers. Supported when group keys are the
// instance key and every aggregate is COUNT(*)/SUM/MIN/MAX/AVG over a
// numeric value attribute. The header walk is one sequential scan; its
// (tiny) output is dealt round-robin over the partitions.
func (e *kbaExec) runStatsAgg(n *kba.StatsAgg) (*pval, error) {
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	valPos := make(map[string]int, len(kvSchema.Val))
	for i, a := range kvSchema.Val {
		valPos[n.Alias+"."+a] = i
	}
	// ScanStats yields segmented blocks of one key as separate records;
	// merge them here by key.
	merged := make(map[string]*statsAcc)
	var order []*statsAcc
	err := e.store.ScanStatsT(e.kv(), n.KV, func(key relation.Tuple, stats *baav.BlockStats) bool {
		if stats == nil {
			return true // block without stats: nothing to merge
		}
		ks := relation.KeyString(key)
		m, ok := merged[ks]
		if !ok {
			m = &statsAcc{key: key}
			merged[ks] = m
			order = append(order, m)
		}
		m.stats.Merge(stats)
		return true
	})
	if err != nil {
		return nil, err
	}
	attrs := qualify(n.Alias, kvSchema.Key)
	for _, a := range n.Aggs {
		attrs = append(attrs, a.Name)
	}
	out := newPval(attrs, e.workers)
	for i, m := range order {
		row := append(make(relation.Tuple, 0, len(attrs)), m.key...)
		for _, a := range n.Aggs {
			v, err := statsFinal(m, a, valPos)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		w := i % e.workers
		out.parts[w] = append(out.parts[w], row)
	}
	return out, nil
}

// statsAcc merges the statistics of one key's block segments.
type statsAcc struct {
	key   relation.Tuple
	stats baav.BlockStats
}

func statsFinal(m *statsAcc, a kba.AggSpec, valPos map[string]int) (relation.Value, error) {
	if a.Star || a.Func == sql.AggCount {
		return relation.Int(m.stats.Rows), nil
	}
	i, ok := valPos[a.Attr]
	if !ok {
		return relation.Value{}, fmt.Errorf("parallel: stats aggregate attribute %q not a value attribute", a.Attr)
	}
	if i >= len(m.stats.Attrs) || !m.stats.Attrs[i].Valid {
		return relation.Value{}, fmt.Errorf("parallel: no statistics for attribute %q", a.Attr)
	}
	st := m.stats.Attrs[i]
	switch a.Func {
	case sql.AggSum:
		return relation.Float(st.Sum), nil
	case sql.AggMin:
		return relation.Float(st.Min), nil
	case sql.AggMax:
		return relation.Float(st.Max), nil
	case sql.AggAvg:
		if m.stats.Rows == 0 {
			return relation.Null(), nil
		}
		return relation.Float(st.Sum / float64(m.stats.Rows)), nil
	default:
		return relation.Value{}, fmt.Errorf("parallel: aggregate %s not supported from statistics", a.Func)
	}
}

// runGroupBy aggregates with local partial states, shuffles the encoded
// partials by group key, and finalizes per worker — the standard two-phase
// parallel aggregation that keeps communication proportional to the number
// of groups, not rows.
func (e *kbaExec) runGroupBy(n *kba.GroupBy) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	keyIdx, err := in.positions(n.Keys)
	if err != nil {
		return nil, err
	}
	aggIdx := make([]int, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			aggIdx[i] = -1
			continue
		}
		idx, err := in.positions([]string{a.Attr})
		if err != nil {
			return nil, err
		}
		aggIdx[i] = idx[0]
	}

	// Phase 1: local partial aggregation, encoded as flat tuples
	// key ++ state_1 ++ ... ++ state_m.
	stateW := ra.AggStateWidth()
	partialAttrs := append([]string{}, n.Keys...)
	for i := range n.Aggs {
		for j := 0; j < stateW; j++ {
			partialAttrs = append(partialAttrs, "$agg"+strconv.Itoa(i)+"."+strconv.Itoa(j))
		}
	}
	partial := newPval(partialAttrs, e.workers)
	err = e.forRows(in.len(), func(w int) error {
		type group struct {
			key    relation.Tuple
			states []*ra.AggState
		}
		groups := make(map[string]*group)
		var order []string
		for _, row := range in.parts[w] {
			key := row.Project(keyIdx)
			ks := relation.KeyString(key)
			g, ok := groups[ks]
			if !ok {
				g = &group{key: key, states: make([]*ra.AggState, len(n.Aggs))}
				for i := range g.states {
					g.states[i] = ra.NewAggState()
				}
				groups[ks] = g
				order = append(order, ks)
			}
			for i := range n.Aggs {
				if aggIdx[i] < 0 {
					g.states[i].AddCount()
				} else {
					g.states[i].Add(row[aggIdx[i]])
				}
			}
		}
		var local []relation.Tuple
		for _, ks := range order {
			g := groups[ks]
			row := g.key.Clone()
			for _, st := range g.states {
				row = append(row, st.EncodeState()...)
			}
			local = append(local, row)
		}
		partial.parts[w] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: shuffle partials by key and merge.
	keyOnly := make([]int, len(n.Keys))
	for i := range keyOnly {
		keyOnly[i] = i
	}
	shuffled := repartition(partial, keyOnly, &e.c.shuffle)
	outAttrs := append([]string{}, n.Keys...)
	for _, a := range n.Aggs {
		outAttrs = append(outAttrs, a.Name)
	}
	out := newPval(outAttrs, e.workers)
	err = e.forRows(shuffled.len(), func(w int) error {
		type group struct {
			key    relation.Tuple
			states []*ra.AggState
		}
		groups := make(map[string]*group)
		var order []string
		for _, row := range shuffled.parts[w] {
			key := row[:len(n.Keys)]
			ks := relation.KeyString(key)
			g, ok := groups[ks]
			if !ok {
				g = &group{key: key, states: make([]*ra.AggState, len(n.Aggs))}
				for i := range g.states {
					g.states[i] = ra.NewAggState()
				}
				groups[ks] = g
				order = append(order, ks)
			}
			for i := range n.Aggs {
				st, err := ra.DecodeAggState(row, len(n.Keys)+i*stateW)
				if err != nil {
					return err
				}
				g.states[i].Merge(st)
			}
		}
		var local []relation.Tuple
		for _, ks := range order {
			g := groups[ks]
			row := g.key.Clone()
			for i, a := range n.Aggs {
				row = append(row, g.states[i].Final(a.Func))
			}
			local = append(local, row)
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}
