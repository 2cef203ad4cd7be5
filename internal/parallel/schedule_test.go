package parallel

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zidian/internal/baav"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// TestHashTupleMatchesFNV pins partition routing: the inline FNV-1a over a
// stack buffer must agree bit for bit with hash/fnv over the same value
// encodings, so no row changes partitions.
func TestHashTupleMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randValue := func() relation.Value {
		switch r.Intn(4) {
		case 0:
			return relation.Null()
		case 1:
			return relation.Int(r.Int63() - r.Int63())
		case 2:
			switch r.Intn(4) {
			case 0:
				return relation.Float(math.Copysign(0, -1))
			case 1:
				return relation.Float(math.Inf(-1))
			default:
				return relation.Float(r.NormFloat64() * 1e6)
			}
		default:
			// Up to 300 bytes with embedded NULs: long keys spill past
			// the stack buffer.
			b := make([]byte, r.Intn(300))
			for i := range b {
				b[i] = byte(r.Intn(4))
			}
			return relation.String(string(b))
		}
	}
	reference := func(tup relation.Tuple, idx []int) uint64 {
		h := fnv.New64a()
		for _, i := range idx {
			h.Write(relation.AppendValue(nil, tup[i]))
		}
		return h.Sum64()
	}
	for n := 0; n < 2000; n++ {
		tup := make(relation.Tuple, 1+r.Intn(5))
		for i := range tup {
			tup[i] = randValue()
		}
		idx := r.Perm(len(tup))[:1+r.Intn(len(tup))]
		want := reference(tup, idx)
		// A modulus near 2^63 exposes all but the top bit of the hash.
		for _, workers := range []int{1, 2, 3, 4, 7, 8, 64, math.MaxInt64} {
			if got := hashTuple(tup, idx, workers); got != int(want%uint64(workers)) {
				t.Fatalf("hashTuple(%v, %v, %d) = %d, hash/fnv routes to %d", tup, idx, workers, got, want%uint64(workers))
			}
		}
	}
}

func TestGoroutinesSizing(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ parts, rows, minRows, want int }{
		{4, 0, inlineRows, 0},
		{4, inlineRows - 1, inlineRows, 0},
		{4, inlineRows, inlineRows, 0},
		{4, inlineRows + 1, inlineRows, min(2, procs)},
		{4, 100 * inlineRows, inlineRows, min(4, procs)},
		{1, 100 * inlineRows, inlineRows, 1},
		{4, 1, 0, 4},
	}
	for _, c := range cases {
		if got := goroutines(c.parts, c.rows, c.minRows); got != c.want {
			t.Errorf("goroutines(%d, %d, %d) = %d, want %d", c.parts, c.rows, c.minRows, got, c.want)
		}
	}
}

func TestFanOutStridesAndErrors(t *testing.T) {
	for _, g := range []int{0, 1, 2, 3, 7} {
		var hits [7]atomic.Int32
		err := fanOut(7, g, func(i int) error {
			hits[i].Add(1)
			if i == 2 || i == 5 {
				return &indexErr{i}
			}
			return nil
		})
		if e, ok := err.(*indexErr); !ok || e.i != 2 {
			t.Fatalf("g=%d: err = %v, want the lowest failing index 2", g, err)
		}
		for i := 0; i < 3; i++ {
			if hits[i].Load() != 1 {
				t.Fatalf("g=%d: index %d ran %d times", g, i, hits[i].Load())
			}
		}
	}
}

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "fail" }

// TestScanOverlapsNodes: a scan waits on every storage node at once, even
// with one worker — node round trips must not run one after another. Each
// node's seek sleeps a storage delay d, so scanning the four nodes one
// after another cannot finish in under 4d; a run under 3d shows the waits
// overlapped. Retries only absorb host stalls: no serial run passes.
func TestScanOverlapsNodes(t *testing.T) {
	db, _, bv, c := fixture(t, 11, 40, 400)
	nodes := bv.Cluster.NodeCount()
	if nodes != 4 {
		t.Fatalf("fixture has %d nodes, want 4", nodes)
	}
	q := ra.MustParse("select PS.partkey from PARTSUPP PS where PS.supplycost >= 10", db)
	info, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Scans) == 0 {
		t.Fatalf("plan %s scans nothing", info.Root)
	}
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	const d = 100 * time.Millisecond
	bv.Cluster.SetOpDelay(d)
	defer bv.Cluster.SetOpDelay(0)
	var elapsed time.Duration
	for try := 0; try < 3; try++ {
		tr := &obs.Trace{}
		start := time.Now()
		got, _, err := RunKBA(info, bv, 1, tr)
		elapsed = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("scan answer differs:\n got %v\nwant %v", got.Rows, want.Rows)
		}
		if w := time.Duration(tr.KV.Snapshot().WaitNanos); w != time.Duration(nodes)*d {
			t.Fatalf("scan waited %v on storage, want one %v round per node", w, d)
		}
		if elapsed < 3*d {
			return
		}
	}
	t.Fatalf("scan took %v for %d node rounds of %v: the rounds ran one after another", elapsed, nodes, d)
}

// TestScanLayout: node n's rows fill partition n % workers in node order,
// whatever the worker count.
func TestScanLayout(t *testing.T) {
	_, _, bv, _ := fixture(t, 12, 40, 400)
	scan := &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	var byNode [][]relation.Tuple
	for node := 0; node < bv.Cluster.NodeCount(); node++ {
		var rows []relation.Tuple
		err := bv.ScanInstanceNode(node, scan.KV, func(key relation.Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
			for _, r := range blk.Expand() {
				rows = append(rows, key.Concat(r))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		byNode = append(byNode, rows)
	}
	for _, workers := range []int{1, 2, 3, 4, 6} {
		e := &kbaExec{store: bv, workers: workers, minRows: inlineRows}
		v, err := e.run(scan)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]relation.Tuple, workers)
		for node, rows := range byNode {
			want[node%workers] = append(want[node%workers], rows...)
		}
		for w := range want {
			if !sameRows(v.parts[w], want[w]) {
				t.Fatalf("workers=%d: partition %d holds %d rows out of node order", workers, w, len(v.parts[w]))
			}
		}
	}
}

func sameRows(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if relation.KeyString(a[i]) != relation.KeyString(b[i]) {
			return false
		}
	}
	return true
}

// boundaryFixture holds T(k, g, v) with n rows and U(g, x, s) with one row
// per g, mapped to BaaV instances keyed by T.k and U.g.
func boundaryFixture(t *testing.T, n int) (*relation.Database, *baav.Store) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	db := relation.NewDatabase()
	const groups = 37
	tr := relation.NewRelation(relation.MustSchema("T",
		[]relation.Attr{{Name: "k", Kind: relation.KindInt}, {Name: "g", Kind: relation.KindInt}, {Name: "v", Kind: relation.KindInt}},
		[]string{"k"}))
	for i := 0; i < n; i++ {
		tr.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % groups)), relation.Int(int64(r.Intn(100)))})
	}
	db.Add(tr)
	ur := relation.NewRelation(relation.MustSchema("U",
		[]relation.Attr{{Name: "g", Kind: relation.KindInt}, {Name: "x", Kind: relation.KindInt}, {Name: "s", Kind: relation.KindString}},
		[]string{"g"}))
	for g := 0; g < groups; g++ {
		ur.MustInsert(relation.Tuple{relation.Int(int64(g)), relation.Int(int64(r.Intn(1000))), relation.String(strings.Repeat("u", g))})
	}
	db.Add(ur)
	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "T_by_k", Rel: "T", Key: []string{"k"}, Val: []string{"g", "v"}},
		baav.KVSchema{Name: "U_by_g", Rel: "U", Key: []string{"g"}, Val: []string{"x", "s"}},
	)
	bv, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 4), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, bv
}

// TestScheduleDifferentialAtInlineBoundary runs each CPU-only operator on
// inputs just below, at, just above and well above inlineRows. The sized
// schedule must answer like ra.Evaluate and match the one-goroutine-per-
// partition schedule exactly: same partitions in the same row order, same
// shuffle, data and get counts.
func TestScheduleDifferentialAtInlineBoundary(t *testing.T) {
	lt50 := relation.Int(50)
	scanT := &kba.ScanKV{KV: "T_by_k", Alias: "T"}
	scanU := &kba.ScanKV{KV: "U_by_g", Alias: "U"}
	cases := []struct {
		op   string
		plan kba.Plan
		sql  string
	}{
		{"Select", &kba.Project{Attrs: []string{"T.k", "T.v"}, Input: &kba.Select{Input: scanT,
			Preds: []kba.Pred{{Attr: "T.v", Op: sql.OpLt, Lit: &lt50}}}},
			"select T.k, T.v from T where T.v < 50"},
		{"Project", &kba.Project{Attrs: []string{"T.g"}, Input: scanT},
			"select T.g from T"},
		{"Distinct", &kba.Distinct{Input: &kba.Project{Attrs: []string{"T.g"}, Input: scanT}},
			"select distinct T.g from T"},
		{"GroupBy", &kba.GroupBy{Input: scanT, Keys: []string{"T.g"}, Aggs: []kba.AggSpec{
			{Func: sql.AggSum, Attr: "T.v", Name: "s"}, {Func: sql.AggCount, Star: true, Name: "c"}}},
			"select T.g, SUM(T.v), COUNT(*) from T group by T.g"},
		{"Extend", &kba.Project{Attrs: []string{"T.k", "U.x"},
			Input: &kba.Extend{Input: scanT, KV: "U_by_g", Alias: "U", KeyFrom: []string{"T.g"}}},
			"select T.k, U.x from T, U where T.g = U.g"},
		{"Join", &kba.Project{Attrs: []string{"T.k", "U.x"},
			Input: &kba.Join{L: scanT, R: scanU, LOn: []string{"T.g"}, ROn: []string{"U.g"}}},
			"select T.k, U.x from T, U where T.g = U.g"},
		{"Diff", &kba.Diff{
			L: &kba.Project{Attrs: []string{"T.k"}, Input: scanT},
			R: &kba.Project{Attrs: []string{"T.k"}, Input: &kba.Select{Input: scanT,
				Preds: []kba.Pred{{Attr: "T.v", Op: sql.OpLt, Lit: &lt50}}}}},
			"select T.k from T where T.v >= 50"},
	}
	for _, n := range []int{inlineRows - 1, inlineRows, inlineRows + 1, 4 * inlineRows} {
		db, bv := boundaryFixture(t, n)
		for _, c := range cases {
			want, err := ra.Evaluate(ra.MustParse(c.sql, db), db)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				sized := &kbaExec{store: bv, workers: workers, minRows: inlineRows}
				got, err := sized.run(c.plan)
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", c.op, n, workers, err)
				}
				if res := (&ra.Result{Cols: want.Cols, Rows: got.rows()}); !res.Equal(want) {
					t.Fatalf("%s n=%d workers=%d: %d rows differ from ra.Evaluate's %d",
						c.op, n, workers, len(res.Rows), len(want.Rows))
				}
				unsized := &kbaExec{store: bv, workers: workers}
				ref, err := unsized.run(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.attrs, ref.attrs) {
					t.Fatalf("%s n=%d workers=%d: attrs %v vs %v", c.op, n, workers, got.attrs, ref.attrs)
				}
				for w := range ref.parts {
					if !sameRows(got.parts[w], ref.parts[w]) {
						t.Fatalf("%s n=%d workers=%d: partition %d differs from the unsized schedule", c.op, n, workers, w)
					}
				}
				gm, rm := sized.c.metrics(workers, 0), unsized.c.metrics(workers, 0)
				if gm.ShuffleBytes != rm.ShuffleBytes || gm.DataValues != rm.DataValues || gm.Gets != rm.Gets {
					t.Fatalf("%s n=%d workers=%d: metrics %+v vs unsized %+v", c.op, n, workers, gm, rm)
				}
			}
		}
	}
}

// TestScheduleDifferentialQueries runs the planner's own plans for the
// shared test queries under both schedules on an instance big enough for
// the scans to fan out.
func TestScheduleDifferentialQueries(t *testing.T) {
	db, _, bv, c := fixture(t, 13, 100, 6000)
	for _, src := range testQueries {
		info, err := c.Plan(ra.MustParse(src, db))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			sized := &kbaExec{store: bv, workers: workers, minRows: inlineRows}
			got, err := sized.run(info.Root)
			if err != nil {
				t.Fatal(err)
			}
			unsized := &kbaExec{store: bv, workers: workers}
			ref, err := unsized.run(info.Root)
			if err != nil {
				t.Fatal(err)
			}
			for w := range ref.parts {
				if !sameRows(got.parts[w], ref.parts[w]) {
					t.Fatalf("%q workers=%d: partition %d differs from the unsized schedule", src, workers, w)
				}
			}
			if gm, rm := sized.c.metrics(workers, 0), unsized.c.metrics(workers, 0); *gm != *rm {
				t.Fatalf("%q workers=%d: metrics %+v vs unsized %+v", src, workers, gm, rm)
			}
		}
	}
}

// pointAllocBudget is the measured allocation count of one bounded point
// plan (constant key ∝ one block, project) at four workers; it catches
// allocations creeping back into hashing, routing and the operators.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so it cannot see goroutine
// fan-out; the test checks separately that every operator of the plan is
// small enough to run inline at any GOMAXPROCS.
const pointAllocBudget = 115

func TestPointPlanAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// 40 PARTSUPP rows give suppliers 0-3 a block of 10 rows each.
	db, _, bv, c := fixture(t, 14, 40, 40)
	info, err := c.Plan(ra.MustParse("select PS.partkey, PS.supplycost from PARTSUPP PS where PS.suppkey = 2", db))
	if err != nil {
		t.Fatal(err)
	}
	// Every operator's sized input (its children's rows, plus the fetched
	// block rows for ∝, which its output covers) is at most the plan's
	// total row count, so that total running inline means no operator
	// fans out.
	tr := &obs.Trace{}
	res, _, err := RunKBA(info, bv, 4, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("point plan answers %d rows, want the block's 10", len(res.Rows))
	}
	total := 0
	var walk func(n *obs.OpNode)
	walk = func(n *obs.OpNode) {
		total += int(n.Rows)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(tr.Root)
	if g := goroutines(4, total, inlineRows); g != 0 {
		t.Fatalf("point plan moves %d rows through its operators, sized to %d goroutines; want inline", total, g)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := RunKBA(info, bv, 4, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("point plan: %d operator rows, %.0f allocs/run", total, allocs)
	if allocs > pointAllocBudget {
		t.Fatalf("point plan allocates %.0f times per run, budget %d", allocs, pointAllocBudget)
	}
}
