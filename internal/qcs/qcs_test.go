package qcs

import (
	"strings"
	"testing"

	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kv"
	"zidian/internal/parallel"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

func testDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.MustSchema("R",
		[]relation.Attr{{Name: "A", Kind: relation.KindInt}, {Name: "B", Kind: relation.KindInt}, {Name: "C", Kind: relation.KindInt}},
		[]string{"A"}))
	for i := int64(0); i < 50; i++ {
		r.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i % 7), relation.Int(i % 3)})
	}
	db.Add(r)
	s := relation.NewRelation(relation.MustSchema("S",
		[]relation.Attr{{Name: "E", Kind: relation.KindInt}, {Name: "F", Kind: relation.KindInt}, {Name: "G", Kind: relation.KindInt}},
		[]string{"E", "F"}))
	for i := int64(0); i < 60; i++ {
		s.MustInsert(relation.Tuple{relation.Int(i % 7), relation.Int(i), relation.Int(i % 5)})
	}
	db.Add(s)
	return db
}

// TestExtractPaperExample reproduces Section 8.1's example: for
// Q = πF(σA=1 R(A,B,C) ⋈B=E S(E,F,G)), the QCS are AB[A] and EF[E].
func TestExtractPaperExample(t *testing.T) {
	db := testDB()
	q := ra.MustParse("select S.F from R, S where R.A = 1 and R.B = S.E", db)
	patterns := Extract(q)
	if len(patterns) != 2 {
		t.Fatalf("patterns = %v", patterns)
	}
	byRel := map[string]QCS{}
	for _, p := range patterns {
		byRel[p.Rel] = p
	}
	r := byRel["R"]
	if strings.Join(r.Z, ",") != "A,B" || strings.Join(r.X, ",") != "A" {
		t.Fatalf("R pattern = %v, want {A,B}[A]", r)
	}
	s := byRel["S"]
	if strings.Join(s.Z, ",") != "E,F" || strings.Join(s.X, ",") != "E" {
		t.Fatalf("S pattern = %v", s)
	}
}

func TestExtractAllDedup(t *testing.T) {
	db := testDB()
	q1 := ra.MustParse("select R.B from R where R.A = 1", db)
	q2 := ra.MustParse("select R.B from R where R.A = 2", db)
	patterns := ExtractAll([]*ra.Query{q1, q2})
	if len(patterns) != 1 {
		t.Fatalf("identical patterns must dedup: %v", patterns)
	}
}

func TestDesignMakesWorkloadScanFree(t *testing.T) {
	db := testDB()
	workload := []*ra.Query{
		ra.MustParse("select S.F from R, S where R.A = 1 and R.B = S.E", db),
		ra.MustParse("select R.C from R where R.A = 7", db),
	}
	d := &Designer{Rels: baav.RelSchemas(db), Workload: workload}
	schema, report, err := d.Design(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range report.ScanFree {
		if !sf {
			t.Fatalf("query %d not scan-free under designed schema %v", i, schema.Names())
		}
	}
	// The designed schema really answers the queries.
	store, err := baav.Map(db, schema, kv.NewCluster(kv.EngineHash, 2), baav.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(schema, baav.RelSchemas(db))
	for _, q := range workload {
		info, err := checker.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ra.Evaluate(q, db)
		for _, workers := range []int{1, 4} {
			got, _, err := parallel.RunKBA(info, store, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("designed schema answer at %d workers differs for %s", workers, q)
			}
		}
	}
}

func TestDesignDropsRedundant(t *testing.T) {
	db := testDB()
	// Two queries with the same access pattern plus one subsumed pattern.
	workload := []*ra.Query{
		ra.MustParse("select R.B, R.C from R where R.A = 1", db),
		ra.MustParse("select R.B from R where R.A = 2", db),
	}
	d := &Designer{Rels: baav.RelSchemas(db), Workload: workload}
	schema, report, err := d.Design(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if report.FinalKVs >= report.InitialKVs && report.InitialKVs > 1 {
		t.Fatalf("redundant schema not dropped: initial=%d final=%d (%v)",
			report.InitialKVs, report.FinalKVs, schema.Names())
	}
}

func TestDesignBudget(t *testing.T) {
	db := testDB()
	workload := []*ra.Query{
		ra.MustParse("select R.B, R.C from R where R.A = 1", db),
		ra.MustParse("select S.G from S where S.E = 3", db),
		ra.MustParse("select S.F from R, S where R.A = 1 and R.B = S.E", db),
	}
	d := &Designer{Rels: baav.RelSchemas(db), Workload: workload}
	unlimited, rep1, err := d.Design(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A tight budget forces drops.
	budget := rep1.EstimatedSize / 2
	tight, rep2, err := d.Design(db, Config{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.EstimatedSize > budget {
		t.Fatalf("estimated size %d exceeds budget %d", rep2.EstimatedSize, budget)
	}
	if len(tight.KVs) >= len(unlimited.KVs) {
		t.Fatalf("budget must shrink the schema: %d vs %d", len(tight.KVs), len(unlimited.KVs))
	}
}

func TestDesignEnsurePreserving(t *testing.T) {
	db := testDB()
	workload := []*ra.Query{ra.MustParse("select R.B from R where R.A = 1", db)}
	d := &Designer{Rels: baav.RelSchemas(db), Workload: workload}
	schema, _, err := d.Design(db, Config{EnsurePreserving: true})
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(schema, baav.RelSchemas(db))
	ok, missing := checker.DataPreserving()
	if !ok {
		t.Fatalf("EnsurePreserving schema misses %v", missing)
	}
}

func TestSchemaForEdgeCases(t *testing.T) {
	db := testDB()
	d := &Designer{Rels: baav.RelSchemas(db)}
	// Full-scan pattern keyed by primary key.
	s, ok := d.schemaFor(QCS{Rel: "R", Z: []string{"A", "B", "C"}})
	if !ok || s.Key[0] != "A" || len(s.Val) != 2 {
		t.Fatalf("full-scan schema = %v %v", s, ok)
	}
	// Pattern over only the key widens with the primary key.
	s, ok = d.schemaFor(QCS{Rel: "S", Z: []string{"E"}, X: []string{"E"}})
	if !ok || len(s.Val) == 0 {
		t.Fatalf("key-only pattern = %v %v", s, ok)
	}
	// Unknown relation.
	if _, ok := d.schemaFor(QCS{Rel: "NOPE", Z: []string{"x"}}); ok {
		t.Fatal("unknown relation must fail")
	}
}

func TestMergeSameKey(t *testing.T) {
	merged := mergeSameKey([]baav.KVSchema{
		{Rel: "R", Key: []string{"A"}, Val: []string{"B"}},
		{Rel: "R", Key: []string{"A"}, Val: []string{"C", "B"}},
		{Rel: "R", Key: []string{"B"}, Val: []string{"A"}},
	})
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	if len(merged[0].Val) != 2 {
		t.Fatalf("vals not unioned: %v", merged[0])
	}
}

func TestQCSString(t *testing.T) {
	p := QCS{Rel: "R", Z: []string{"A", "B"}, X: []string{"A"}}
	if !strings.Contains(p.String(), "R:") {
		t.Fatal("String format")
	}
}
