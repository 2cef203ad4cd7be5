// The KBA operator tests run plans on the parallel executor, the only one
// there is, at one and four workers.
package kba_test

import (
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// fixture builds the paper's Example 1 database and BaaV schema:
//
//	~SUPPLIER⟨nationkey, suppkey⟩
//	~PARTSUPP⟨suppkey, (partkey, supplycost, availqty)⟩
//	~NATION⟨name, nationkey⟩
func fixture(t *testing.T) (*relation.Database, *baav.Store) {
	t.Helper()
	db := relation.NewDatabase()

	nation := relation.NewRelation(relation.MustSchema("NATION",
		[]relation.Attr{{Name: "nationkey", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString}},
		[]string{"nationkey"}))
	nation.MustInsert(relation.Tuple{relation.Int(1), relation.String("GERMANY")})
	nation.MustInsert(relation.Tuple{relation.Int(2), relation.String("FRANCE")})
	db.Add(nation)

	supplier := relation.NewRelation(relation.MustSchema("SUPPLIER",
		[]relation.Attr{{Name: "suppkey", Kind: relation.KindInt}, {Name: "nationkey", Kind: relation.KindInt}},
		[]string{"suppkey"}))
	supplier.MustInsert(relation.Tuple{relation.Int(10), relation.Int(1)})
	supplier.MustInsert(relation.Tuple{relation.Int(11), relation.Int(1)})
	supplier.MustInsert(relation.Tuple{relation.Int(12), relation.Int(2)})
	db.Add(supplier)

	partsupp := relation.NewRelation(relation.MustSchema("PARTSUPP",
		[]relation.Attr{
			{Name: "partkey", Kind: relation.KindInt}, {Name: "suppkey", Kind: relation.KindInt},
			{Name: "supplycost", Kind: relation.KindInt}, {Name: "availqty", Kind: relation.KindInt},
		},
		[]string{"partkey", "suppkey"}))
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(10), relation.Int(5), relation.Int(1)})
	partsupp.MustInsert(relation.Tuple{relation.Int(101), relation.Int(10), relation.Int(7), relation.Int(2)})
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(11), relation.Int(3), relation.Int(3)})
	partsupp.MustInsert(relation.Tuple{relation.Int(100), relation.Int(12), relation.Int(9), relation.Int(4)})
	db.Add(partsupp)

	schema := baav.MustSchema(baav.RelSchemas(db),
		baav.KVSchema{Name: "NATION_by_name", Rel: "NATION", Key: []string{"name"}, Val: []string{"nationkey"}},
		baav.KVSchema{Name: "SUPPLIER_by_nation", Rel: "SUPPLIER", Key: []string{"nationkey"}, Val: []string{"suppkey"}},
		baav.KVSchema{Name: "PARTSUPP_by_supp", Rel: "PARTSUPP", Key: []string{"suppkey"}, Val: []string{"partkey", "supplycost", "availqty"}},
	)
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 3), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, store
}

// exec runs a raw plan on workers partitions under a trace and returns its
// output columns cols, which must all exist.
func exec(store *baav.Store, plan kba.Plan, workers int, cols ...string) (*ra.Result, *parallel.Metrics, *obs.Trace, error) {
	info := &core.PlanInfo{Query: &ra.Query{OutNames: cols, Limit: -1}, Root: plan, OutCols: cols}
	tr := &obs.Trace{}
	res, m, err := parallel.RunKBA(info, store, workers, tr)
	return res, m, tr, err
}

// run is exec at four workers, requiring the one-worker run to give the
// same answer and the same data-access counts.
func run(t *testing.T, store *baav.Store, plan kba.Plan, cols ...string) (*ra.Result, *parallel.Metrics, *obs.Trace) {
	t.Helper()
	res, m, tr, err := exec(store, plan, 4, cols...)
	if err != nil {
		t.Fatalf("%s: %v", plan, err)
	}
	one, m1, _, err := exec(store, plan, 1, cols...)
	if err != nil {
		t.Fatalf("%s at one worker: %v", plan, err)
	}
	if !one.Equal(res) {
		t.Fatalf("%s: one worker answers %v, four answer %v", plan, one.Rows, res.Rows)
	}
	if m1.Gets != m.Gets || m1.DataValues != m.DataValues {
		t.Fatalf("%s: one worker reads gets=%d data=%d, four gets=%d data=%d",
			plan, m1.Gets, m1.DataValues, m.Gets, m.DataValues)
	}
	return res, m, tr
}

// runErr runs a plan that must fail, at one and four workers.
func runErr(t *testing.T, store *baav.Store, plan kba.Plan, why string) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		if _, _, _, err := exec(store, plan, workers); err == nil {
			t.Fatalf("%s at %d workers: %s must error", plan, workers, why)
		}
	}
}

// ints builds integer rows.
func ints(rows ...[]int64) []relation.Tuple {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], relation.Int(v))
		}
	}
	return out
}

// wantRows requires got to hold the rows want, in any order.
func wantRows(t *testing.T, got *ra.Result, want []relation.Tuple) {
	t.Helper()
	if !got.Equal(&ra.Result{Cols: got.Cols, Rows: want}) {
		t.Fatalf("rows = %v, want %v", got.Rows, want)
	}
}

// paperPlan builds ξ1 of Example 3:
// group_by((("GERMANY" ∝ ~NATION) ∝ ~SUPPLIER) ∝ ~PARTSUPP, PS.suppkey, SUM(PS.supplycost)).
func paperPlan() kba.Plan {
	seed := &kba.Const{KeyAttrs: []string{"N.name"}, Keys: []relation.Tuple{{relation.String("GERMANY")}}}
	t1 := &kba.Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	t2 := &kba.Extend{Input: t1, KV: "SUPPLIER_by_nation", Alias: "S", KeyFrom: []string{"N.nationkey"}}
	t3 := &kba.Extend{Input: t2, KV: "PARTSUPP_by_supp", Alias: "PS", KeyFrom: []string{"S.suppkey"}}
	return &kba.GroupBy{
		Input: t3,
		Keys:  []string{"S.suppkey"},
		Aggs:  []kba.AggSpec{{Func: sql.AggSum, Attr: "PS.supplycost", Name: "total"}},
	}
}

func TestPaperQ1PlanScanFree(t *testing.T) {
	_, store := fixture(t)
	plan := paperPlan()
	if !kba.IsScanFree(plan) {
		t.Fatal("ξ1 is scan-free")
	}
	if len(kba.CollectScans(plan)) != 0 {
		t.Fatal("scan-free plan must scan nothing")
	}
	out, m, tr := run(t, store, plan, "S.suppkey", "total")
	// Supplier 10: 5+7=12; supplier 11: 3.
	wantRows(t, out, ints([]int64{10, 12}, []int64{11, 3}))
	// Scan-free data access: one get per block (3 extends, 1+1+2 distinct
	// keys), zero scans.
	if n := tr.KV.Snapshot().ScanNexts; n != 0 {
		t.Fatalf("scan steps = %d", n)
	}
	if m.Gets != 4 {
		t.Fatalf("gets = %d (want 4: germany, nation-1, supp-10, supp-11)", m.Gets)
	}
	if m.DataValues == 0 || m.FetchBytes == 0 {
		t.Fatal("metrics must count fetched data")
	}
}

func TestExtendDropsUnmatchedRows(t *testing.T) {
	_, store := fixture(t)
	seed := &kba.Const{KeyAttrs: []string{"N.name"}, Keys: []relation.Tuple{
		{relation.String("GERMANY")}, {relation.String("ATLANTIS")},
	}}
	plan := &kba.Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	out, m, tr := run(t, store, plan, "N.name", "N.nationkey")
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if m.Gets != 2 || tr.Blocks() != 1 {
		t.Fatalf("gets=%d blocks=%d", m.Gets, tr.Blocks())
	}
}

func TestExtendDeduplicatesGets(t *testing.T) {
	_, store := fixture(t)
	// Two constant rows with the same key: one get.
	seed := &kba.Const{KeyAttrs: []string{"a", "N.name"}, Keys: []relation.Tuple{
		{relation.Int(1), relation.String("GERMANY")},
		{relation.Int(2), relation.String("GERMANY")},
	}}
	plan := &kba.Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"N.name"}}
	out, m, _ := run(t, store, plan, "a", "N.nationkey")
	if m.Gets != 1 {
		t.Fatalf("gets = %d, extend must dedup keys", m.Gets)
	}
	wantRows(t, out, ints([]int64{1, 1}, []int64{2, 1}))
}

func TestExtendErrors(t *testing.T) {
	_, store := fixture(t)
	seed := &kba.Const{KeyAttrs: []string{"x"}, Keys: []relation.Tuple{{relation.Int(1)}}}
	runErr(t, store, &kba.Extend{Input: seed, KV: "nope", Alias: "N", KeyFrom: []string{"x"}}, "unknown KV schema")
	runErr(t, store, &kba.Extend{Input: seed, KV: "NATION_by_name", Alias: "N", KeyFrom: []string{"zz"}}, "unknown key attribute")
	runErr(t, store, &kba.Extend{Input: seed, KV: "PARTSUPP_by_supp", Alias: "PS", KeyFrom: []string{}}, "key arity mismatch")
	runErr(t, store, &kba.Const{KeyAttrs: []string{"a", "b"}, Keys: []relation.Tuple{{relation.Int(1)}}}, "constant arity mismatch")
}

func TestScanKV(t *testing.T) {
	_, store := fixture(t)
	out, m, tr := run(t, store, &kba.ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}, "S.nationkey", "S.suppkey")
	wantRows(t, out, ints([]int64{1, 10}, []int64{1, 11}, []int64{2, 12}))
	if tr.Blocks() != 2 || m.DataValues == 0 {
		t.Fatalf("blocks=%d metrics=%+v", tr.Blocks(), m)
	}
	if kba.IsScanFree(&kba.ScanKV{KV: "x", Alias: "a"}) {
		t.Fatal("ScanKV is not scan-free")
	}
}

func TestShiftPreservesRelationalVersion(t *testing.T) {
	_, store := fixture(t)
	scan := &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	cols := []string{"PS.partkey", "PS.suppkey", "PS.supplycost", "PS.availqty"}
	shifted, _, _ := run(t, store, &kba.Shift{Input: scan, NewKey: []string{"PS.partkey"}}, cols...)
	base, _, _ := run(t, store, scan, cols...)
	if len(base.Rows) != 4 || !shifted.Equal(base) {
		t.Fatalf("shift changed the relational version: %v vs %v", shifted.Rows, base.Rows)
	}
}

func TestJoin(t *testing.T) {
	_, store := fixture(t)
	j := &kba.Join{
		L:   &kba.ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"},
		R:   &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		LOn: []string{"S.suppkey"},
		ROn: []string{"PS.suppkey"},
	}
	out, _, _ := run(t, store, j, "S.nationkey", "S.suppkey", "PS.suppkey", "PS.partkey", "PS.supplycost", "PS.availqty")
	if len(out.Rows) != 4 {
		t.Fatalf("rows = %v", out.Rows)
	}
	runErr(t, store, &kba.Join{L: j.L, R: j.R, LOn: []string{"S.suppkey"}, ROn: nil}, "mismatched join lists")
}

func TestSelectPredicates(t *testing.T) {
	_, store := fixture(t)
	scan := &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}
	five := relation.Int(5)
	sel := &kba.Select{Input: scan, Preds: []kba.Pred{
		{Attr: "PS.supplycost", Op: sql.OpGe, Lit: &five},
		{Attr: "PS.partkey", Op: sql.OpNe, RAttr: "PS.availqty"},
		{Attr: "PS.suppkey", In: []relation.Value{relation.Int(10), relation.Int(12)}},
	}}
	out, _, _ := run(t, store, sel, "PS.suppkey", "PS.partkey")
	wantRows(t, out, ints([]int64{10, 100}, []int64{10, 101}, []int64{12, 100}))
	bad := &kba.Select{Input: scan, Preds: []kba.Pred{{Attr: "zzz", Op: sql.OpEq, Lit: &five}}}
	runErr(t, store, bad, "unknown attribute")
}

func TestProject(t *testing.T) {
	_, store := fixture(t)
	out, _, _ := run(t, store, &kba.Project{
		Input: &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		Attrs: []string{"PS.partkey", "PS.suppkey"},
	}, "PS.partkey", "PS.suppkey")
	wantRows(t, out, ints([]int64{100, 10}, []int64{101, 10}, []int64{100, 11}, []int64{100, 12}))
	_, _, _, err := exec(store, &kba.Project{
		Input: &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"},
		Attrs: []string{"PS.partkey"},
	}, 4, "PS.suppkey")
	if err == nil {
		t.Fatal("a projected-away column must not reach the output")
	}
}

func TestUnionAndDiff(t *testing.T) {
	_, store := fixture(t)
	a := &kba.Const{KeyAttrs: []string{"k"}, Keys: []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}}
	b := &kba.Const{KeyAttrs: []string{"k"}, Keys: []relation.Tuple{{relation.Int(2)}, {relation.Int(3)}}}
	u, _, _ := run(t, store, &kba.Union{L: a, R: b}, "k")
	wantRows(t, u, ints([]int64{1}, []int64{2}, []int64{3}))
	d, _, _ := run(t, store, &kba.Diff{L: a, R: b}, "k")
	wantRows(t, d, ints([]int64{1}))
	mismatched := &kba.Const{KeyAttrs: []string{"other"}, Keys: []relation.Tuple{{relation.Int(1)}}}
	runErr(t, store, &kba.Union{L: a, R: mismatched}, "mismatched attrs")
	runErr(t, store, &kba.Diff{L: a, R: mismatched}, "mismatched attrs")
}

func TestDistinct(t *testing.T) {
	_, store := fixture(t)
	// Project supplier block values onto nationkey only: duplicates appear.
	p := &kba.Project{Input: &kba.ScanKV{KV: "SUPPLIER_by_nation", Alias: "S"}, Attrs: []string{"S.nationkey"}}
	out, _, _ := run(t, store, &kba.Distinct{Input: p}, "S.nationkey")
	wantRows(t, out, ints([]int64{1}, []int64{2}))
}

func TestGroupByMatchesReference(t *testing.T) {
	db, store := fixture(t)
	q := ra.MustParse(`select PS.suppkey, SUM(PS.supplycost)
		from PARTSUPP as PS, SUPPLIER as S, NATION as N
		where PS.suppkey = S.suppkey and S.nationkey = N.nationkey and N.name = 'GERMANY'
		group by PS.suppkey`, db)
	want, err := ra.Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _ := run(t, store, paperPlan(), "S.suppkey", "total")
	if got := (&ra.Result{Cols: want.Cols, Rows: out.Rows}); !got.Equal(want) {
		t.Fatalf("KBA plan answer %v != reference %v", got.Rows, want.Rows)
	}
}

// TestStatsAggMatchesGroupBy: the statistics plan answers like a group-by
// over the scanned instance and like ra.Evaluate, at every worker count,
// while reading strictly less data.
func TestStatsAggMatchesGroupBy(t *testing.T) {
	db, store := fixture(t)
	aggs := []kba.AggSpec{
		{Func: sql.AggCount, Star: true, Name: "cnt"},
		{Func: sql.AggSum, Attr: "PS.supplycost", Name: "sum"},
		{Func: sql.AggMin, Attr: "PS.supplycost", Name: "min"},
		{Func: sql.AggMax, Attr: "PS.supplycost", Name: "max"},
		{Func: sql.AggAvg, Attr: "PS.supplycost", Name: "avg"},
	}
	cols := []string{"PS.suppkey", "cnt", "sum", "min", "max", "avg"}
	want, err := ra.Evaluate(ra.MustParse(`select PS.suppkey, COUNT(*), SUM(PS.supplycost),
		MIN(PS.supplycost), MAX(PS.supplycost), AVG(PS.supplycost)
		from PARTSUPP PS group by PS.suppkey`, db), db)
	if err != nil {
		t.Fatal(err)
	}
	full := &kba.GroupBy{Input: &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}, Keys: []string{"PS.suppkey"}, Aggs: aggs}
	fast := &kba.StatsAgg{KV: "PARTSUPP_by_supp", Alias: "PS", Aggs: aggs}
	for _, workers := range []int{1, 2, 4} {
		wantGot, fullM, _, err := exec(store, full, workers, cols...)
		if err != nil {
			t.Fatal(err)
		}
		got, fastM, _, err := exec(store, fast, workers, cols...)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(wantGot) {
			t.Fatalf("workers=%d: stats answer %v, group-by answers %v", workers, got.Rows, wantGot.Rows)
		}
		if !(&ra.Result{Cols: want.Cols, Rows: got.Rows}).Equal(want) {
			t.Fatalf("workers=%d: stats answer %v, ra.Evaluate answers %v", workers, got.Rows, want.Rows)
		}
		// The stats path reads block headers only: strictly less data.
		if fastM.DataValues >= fullM.DataValues {
			t.Fatalf("workers=%d: stats path must touch less data: %d vs %d", workers, fastM.DataValues, fullM.DataValues)
		}
	}
}

func TestPlanStrings(t *testing.T) {
	plan := paperPlan()
	s := plan.String()
	for _, frag := range []string{"GERMANY", "∝", "γ"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan string missing %q: %s", frag, s)
		}
	}
	nodes := []kba.Plan{
		&kba.Shift{Input: &kba.ScanKV{KV: "a", Alias: "A"}, NewKey: []string{"x"}},
		&kba.Select{Input: &kba.ScanKV{KV: "a", Alias: "A"}, Preds: []kba.Pred{{Attr: "x", In: []relation.Value{relation.Int(1)}}}},
		&kba.Project{Input: &kba.ScanKV{KV: "a", Alias: "A"}, Attrs: []string{"x"}},
		&kba.Union{L: &kba.ScanKV{KV: "a", Alias: "A"}, R: &kba.ScanKV{KV: "b", Alias: "B"}},
		&kba.Diff{L: &kba.ScanKV{KV: "a", Alias: "A"}, R: &kba.ScanKV{KV: "b", Alias: "B"}},
		&kba.Distinct{Input: &kba.ScanKV{KV: "a", Alias: "A"}},
		&kba.StatsAgg{KV: "a", Alias: "A"},
	}
	for _, n := range nodes {
		if n.String() == "" {
			t.Fatalf("%T has empty String()", n)
		}
	}
	if len(kba.CollectScans(nodes[3])) != 2 {
		t.Fatal("union scans both sides")
	}
}

func TestShiftThenGroupBy(t *testing.T) {
	_, store := fixture(t)
	// Re-key partsupp by partkey, then aggregate per part.
	plan := &kba.GroupBy{
		Input: &kba.Shift{Input: &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}, NewKey: []string{"PS.partkey"}},
		Keys:  []string{"PS.partkey"},
		Aggs:  []kba.AggSpec{{Func: sql.AggCount, Star: true, Name: "n"}},
	}
	out, _, _ := run(t, store, plan, "PS.partkey", "n")
	wantRows(t, out, ints([]int64{100, 3}, []int64{101, 1}))
	runErr(t, store, &kba.Shift{Input: &kba.ScanKV{KV: "PARTSUPP_by_supp", Alias: "PS"}, NewKey: []string{"zzz"}}, "unknown shift key")
}
