package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zidian"
	"zidian/internal/baav"
	"zidian/internal/index"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
	"zidian/internal/server/client"
	sqlpkg "zidian/internal/sql"
)

// traceEvery samples one statement in traceEvery of each client's stream
// for the layer calls; the rest only go over the wire.
const traceEvery = 4

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the traced phase started; spans of
// one statement share Stmt, and the statement's root span is their Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer replays sampled statements through the layers' entry points and
// accumulates the per-layer measures.
type tracer struct {
	e     *env
	start time.Time
	// kvGate makes every traced in-process call the only kv traffic while
	// it runs: wire calls and untraced in-process calls share it, the
	// traced RunTraced/ExecTraced calls hold it alone, so each call's
	// Cluster.Metrics delta can be compared with its obs.Trace counts.
	kvGate sync.RWMutex
	stmtID atomic.Int64
	spanID atomic.Int64

	mu                     sync.Mutex
	spans                  []span
	wireSelf, query, parse []float64
	prepare, run           []float64
	commitWait             []float64
	stmts, reads           int64
	postings, blocks       int64
	dataValues, shuffle    int64
	kvWaitNanos            int64
	traceKV                obs.KV
	clusterKV              kv.Snapshot
	nodeOps                []int64
	kvCalls                int64 // traced calls in the conservation sums
	excluded               int64 // traced calls a background sweep overlapped
	mismatches             int64
	firstMismatch          string
	answers                []string
}

func newTracer(e *env) *tracer {
	return &tracer{e: e, start: time.Now(), nodeOps: make([]int64, e.inst.Store().Cluster.NodeCount())}
}

func (t *tracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// clusterState is the cluster-wide and per-node kv counters plus the sweep
// total, read together.
type clusterState struct {
	total kv.Snapshot
	nodes []kv.Snapshot
	swept int64
}

func (t *tracer) clusterState() clusterState {
	c := t.e.inst.Store().Cluster
	s := clusterState{total: c.Metrics(), nodes: make([]kv.Snapshot, c.NodeCount()), swept: t.e.inst.MVCCSwept()}
	for i := range s.nodes {
		s.nodes[i] = c.NodeMetrics(i)
	}
	return s
}

func ops(s kv.Snapshot) int64 { return s.Gets + s.Puts + s.Deletes + s.ScanNexts }

// exclusive runs fn as the only kv traffic and checks that fn's trace
// accounts for exactly the cluster's kv delta over the call.
func (t *tracer) exclusive(tr *obs.Trace, fn func()) {
	t.kvGate.Lock()
	before := t.clusterState()
	fn()
	after := t.clusterState()
	t.kvGate.Unlock()

	got := tr.KV.Snapshot()
	delta := after.total.Sub(before.total)
	t.mu.Lock()
	defer t.mu.Unlock()
	if after.swept != before.swept {
		t.excluded++ // the background sweep ran inside the window
		return
	}
	t.traceKV.Merge(got)
	t.clusterKV = t.clusterKV.Add(delta)
	for i := range t.nodeOps {
		t.nodeOps[i] += ops(after.nodes[i].Sub(before.nodes[i]))
	}
	t.kvCalls++
	if got.Gets != delta.Gets || got.Puts != delta.Puts || got.Deletes != delta.Deletes ||
		got.ScanNexts != delta.ScanNexts || got.BytesRead != delta.BytesRead || got.BytesWritten != delta.BytesWritten {
		if t.mismatches == 0 {
			t.firstMismatch = fmt.Sprintf("trace %+v, cluster delta %+v", got, delta)
		}
		t.mismatches++
	}
}

// timed runs fn and records it as a span of statement stmt.
func (t *tracer) timed(local *[]span, stmt, parent int64, name string, fn func()) time.Duration {
	s := span{ID: t.spanID.Add(1), Parent: parent, Stmt: stmt, Name: name, Start: t.now()}
	fn()
	s.End = t.now()
	*local = append(*local, s)
	return time.Duration(s.End - s.Start)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// send is the traced phase's sendFunc. Unsampled statements go over the
// wire only. A sampled read goes over the wire, then through
// Server.Query, sql.Parse, Instance.Prepare and Prepared.RunTraced in
// process; a sampled write goes once, in process, through
// Instance.ExecTraced — writes are never replayed.
func (t *tracer) send(counter []int) sendFunc {
	return func(w int, c *client.Client, s *stmt) outcome {
		counter[w]++
		if counter[w]%traceEvery != 0 {
			t.kvGate.RLock()
			defer t.kvGate.RUnlock()
			return sendWire(w, c, s)
		}
		if s.write {
			return t.tracedWrite(s)
		}
		return t.tracedRead(w, c, s)
	}
}

func (t *tracer) tracedWrite(s *stmt) outcome {
	id := t.stmtID.Add(1)
	root := span{ID: t.spanID.Add(1), Stmt: id, Name: "stmt", Start: t.now()}
	var local []span
	tr := &obs.Trace{}
	var err error
	t.exclusive(tr, func() {
		t.timed(&local, id, root.ID, "baav.exec", func() {
			_, err = t.e.inst.ExecTraced(tr, s.sql)
		})
	})
	root.End = t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(append(t.spans, root), local...)
	t.stmts++
	t.commitWait = append(t.commitWait, us(time.Duration(tr.CommitWaitNanos)))
	return outcome{write: true, err: err}
}

func (t *tracer) tracedRead(w int, c *client.Client, s *stmt) outcome {
	id := t.stmtID.Add(1)
	root := span{ID: t.spanID.Add(1), Stmt: id, Name: "stmt", Start: t.now()}
	var local []span
	var o outcome
	t.kvGate.RLock()
	t.timed(&local, id, root.ID, "wire", func() { o = sendWire(w, c, s) })
	t.kvGate.RUnlock()
	if o.err != nil {
		return o
	}
	vals := s.values()
	var (
		srvRes, res *zidian.Result
		stats       *zidian.Stats
		hit         bool
		p           *zidian.Prepared
		errs        [4]error
	)
	t.kvGate.RLock()
	dq := t.timed(&local, id, root.ID, "server.query", func() {
		srvRes, _, hit, errs[0] = t.e.srv.Query(context.Background(), s.sql, vals...)
	})
	dp := t.timed(&local, id, root.ID, "sql.parse", func() { _, errs[1] = sqlpkg.Parse(s.sql) })
	dc := t.timed(&local, id, root.ID, "core.prepare", func() { p, errs[2] = t.e.inst.Prepare(s.sql) })
	t.kvGate.RUnlock()
	tr := &obs.Trace{}
	var dr time.Duration
	if errs[2] == nil {
		t.exclusive(tr, func() {
			dr = t.timed(&local, id, root.ID, "parallel.run", func() { res, stats, errs[3] = p.RunTraced(tr, vals...) })
		})
	}
	root.End = t.now()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(append(t.spans, root), local...)
	for _, err := range errs {
		if err != nil {
			o.err = err
			return o
		}
	}
	if !srvRes.Equal(res) && len(t.answers) < 5 {
		t.answers = append(t.answers, fmt.Sprintf("%s: Server.Query and RunTraced answers differ", s.lit))
	}
	t.stmts++
	t.reads++
	if o.stats != nil && o.stats.CacheHit == hit {
		t.wireSelf = append(t.wireSelf, us(o.wire-dq))
	}
	kvWait := time.Duration(tr.KV.Snapshot().WaitNanos)
	t.query = append(t.query, us(dq))
	t.parse = append(t.parse, us(dp))
	t.prepare = append(t.prepare, us(dc-dp))
	t.run = append(t.run, us(dr-kvWait))
	t.kvWaitNanos += int64(kvWait)
	t.postings += tr.PostingReads()
	t.blocks += tr.Blocks()
	t.dataValues += stats.DataValues
	t.shuffle += stats.ShuffleBytes
	return o
}

// probes times direct calls into the lower layers on sampled stored data:
// index lookups, block decodes and cluster gets. Each result is the median
// per-call time in microseconds; 0 where the deployment has nothing to
// probe (no secondary index).
func probes(e *env, seed int64) (indexUS, decodeUS, getUS float64, err error) {
	r := rand.New(rand.NewSource(seed))
	st := e.inst.Store()

	// Index: Lookup on values of stored tuples; Range over a 5-wide window
	// on integer indexes.
	var idx []float64
	if m, ok := st.Index.(*index.Manager); ok {
		for _, name := range e.inst.IndexNames() {
			def, ok := m.DefOf(name)
			if !ok {
				continue
			}
			rel := e.w.DB.Relation(def.Rel)
			col := rel.Schema.Index(def.Attr)
			for i := 0; i < 64 && len(rel.Tuples) > 0; i++ {
				v := rel.Tuples[r.Intn(len(rel.Tuples))][col]
				t0 := time.Now()
				if _, _, err := m.Lookup(name, v); err != nil {
					return 0, 0, 0, fmt.Errorf("index lookup %s: %w", name, err)
				}
				idx = append(idx, us(time.Since(t0)))
				if v.Kind == relation.KindInt {
					hi := relation.Int(v.Int + 5)
					t0 := time.Now()
					if _, _, _, err := m.Range(name, &v, &hi, true, true); err != nil {
						return 0, 0, 0, fmt.Errorf("index range %s: %w", name, err)
					}
					idx = append(idx, us(time.Since(t0)))
				}
			}
		}
	}

	// Blocks: stored blocks of every KV instance, re-encoded, then decoded
	// in batches.
	type enc struct {
		data  []byte
		width int
	}
	var blocks []enc
	for _, kvs := range st.Schema.KVs {
		width, n := len(kvs.Val), 0
		err := st.ScanInstance(kvs.Name, func(_ relation.Tuple, b *baav.Block, bs *baav.BlockStats) bool {
			blocks = append(blocks, enc{baav.EncodeBlock(b, bs, width), width})
			n++
			return n < 32
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("scan %s: %w", kvs.Name, err)
		}
	}
	var dec []float64
	for rep := 0; rep < 20 && len(blocks) > 0; rep++ {
		t0 := time.Now()
		for _, b := range blocks {
			if _, _, err := baav.DecodeBlock(b.data, b.width); err != nil {
				return 0, 0, 0, fmt.Errorf("decode block: %w", err)
			}
		}
		dec = append(dec, us(time.Since(t0))/float64(len(blocks)))
	}

	// Gets: keys stored on the node their own hash routes to, so a plain
	// Cluster.Get finds them.
	c := st.Cluster
	var keys [][]byte
	for i := 0; i < c.NodeCount(); i++ {
		n := 0
		c.ScanNode(i, nil, func(k, _ []byte) bool {
			if c.NodeFor(k) == i {
				keys = append(keys, append([]byte(nil), k...))
				n++
			}
			return n < 16
		})
	}
	var gets []float64
	for rep := 0; rep < 16 && len(keys) > 0; rep++ {
		t0 := time.Now()
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				return 0, 0, 0, fmt.Errorf("probe key %x not found", k)
			}
		}
		gets = append(gets, us(time.Since(t0))/float64(len(keys)))
	}
	return median(idx), median(dec), median(gets), nil
}
