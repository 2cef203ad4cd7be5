package main

import (
	"fmt"
	"math/rand"
	"time"

	"zidian"
	"zidian/internal/relation"
	"zidian/internal/server/loadgen"
)

// emulatedRTT is the per-node service time installed on the storage
// cluster for the *_rtt workloads. It is an emulation of a network hop
// (kv.Cluster.SetServiceDelay), not a measured network.
const emulatedRTT = 200 * time.Microsecond

// writeIDBase offsets inserted ids clear of every generated pk and fk, so
// reads that draw ids from the generated vehicles never see a write and
// the oracle computed on the generated database stays valid during a
// read/write run.
const writeIDBase = 1 << 21

// workloadSpec is one traffic mix over the mot dataset.
type workloadSpec struct {
	name  string
	scale float64
	// rtt is the emulated per-node service time, installed after set-up.
	rtt time.Duration
	// inline sends literals in the SQL text instead of as wire parameters.
	inline bool
	reads  []loadgen.Template
	writes []loadgen.Template
	// writeFraction is the probability a statement is a write.
	writeFraction float64
	// setup is the DDL sent over the wire once the server is up.
	setup []string
}

func workloadByName(name string) (*workloadSpec, error) {
	switch name {
	case "point", "adhoc":
		reads, err := loadgen.Templates("mot")
		if err != nil {
			return nil, err
		}
		return &workloadSpec{name: name, scale: 4, inline: name == "adhoc", reads: reads}, nil
	case "range_rtt":
		nonkey, nkSetup, err := loadgen.TemplatesMix("mot", "nonkey")
		if err != nil {
			return nil, err
		}
		ranged, rSetup, err := loadgen.TemplatesMix("mot", "range")
		if err != nil {
			return nil, err
		}
		return &workloadSpec{name: name, scale: 1, rtt: emulatedRTT,
			reads: append(nonkey, ranged...), setup: append(nkSetup, rSetup...)}, nil
	case "rw_rtt":
		reads, writes, setup, err := loadgen.ReadWriteMix("mot")
		if err != nil {
			return nil, err
		}
		return &workloadSpec{name: name, scale: 4, rtt: emulatedRTT,
			reads: reads, writes: writes, writeFraction: 0.2, setup: setup}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want point, adhoc, range_rtt or rw_rtt)", name)
}

var workloadNames = []string{"point", "adhoc", "range_rtt", "rw_rtt"}

// domain is the active domain a template's parameter is drawn from.
type domain struct {
	lo, hi int      // numeric: uniform over [lo, hi]
	pool   []string // string: uniform over the pool
}

// paramAttr names the attribute whose generated values bound each
// numeric template's parameter; templates not listed draw vehicle ids.
var paramAttr = map[string][2]string{
	"road_observations": {"OBSERVATION", "road_id"},
	"year_band":         {"VEHICLE", "year"},
	"speed_band":        {"OBSERVATION", "speed"},
}

// domains derives every read template's parameter domain from the
// generated database, so draws land on values that exist.
func domains(spec *workloadSpec, db *zidian.Database) ([]domain, error) {
	out := make([]domain, len(spec.reads))
	for i, t := range spec.reads {
		if len(t.Strings) > 0 {
			out[i] = domain{pool: t.Strings}
			continue
		}
		ra, ok := paramAttr[t.Name]
		if !ok {
			ra = [2]string{"VEHICLE", "vehicle_id"}
		}
		lo, hi, err := intRange(db, ra[0], ra[1])
		if err != nil {
			return nil, err
		}
		out[i] = domain{lo: lo, hi: hi}
	}
	return out, nil
}

func intRange(db *zidian.Database, rel, attr string) (lo, hi int, err error) {
	r := db.Relation(rel)
	if r == nil {
		return 0, 0, fmt.Errorf("no relation %s", rel)
	}
	col := r.Schema.Index(attr)
	if col < 0 || len(r.Tuples) == 0 {
		return 0, 0, fmt.Errorf("no values for %s.%s", rel, attr)
	}
	lo, hi = int(r.Tuples[0][col].Int), int(r.Tuples[0][col].Int)
	for _, t := range r.Tuples {
		v := int(t[col].Int)
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, nil
}

// stmt is one statement the load loop sends.
type stmt struct {
	sql    string // wire text: `?` form, or literals inlined
	params []any  // wire parameters (nil when inlined)
	lit    string // literal form, the oracle's input
	write  bool
}

// values converts wire parameters to SQL values for in-process calls.
func (s *stmt) values() []zidian.Value {
	if len(s.params) == 0 {
		return nil
	}
	out := make([]zidian.Value, len(s.params))
	for i, p := range s.params {
		switch v := p.(type) {
		case int:
			out[i] = relation.Int(int64(v))
		case string:
			out[i] = relation.String(v)
		}
	}
	return out
}

// generator draws one client's statement sequence. The sequence depends
// only on the seed, the client number and the generated database.
type generator struct {
	spec     *workloadSpec
	doms     []domain
	paramSQL []string
	r        *rand.Rand
	nextID   int
	// live holds, per write template, the ids inserted and not yet
	// deleted; deleted collects the ids whose delete was sent.
	live    [][]int
	deleted [][]int
}

func newGenerator(spec *workloadSpec, doms []domain, seed int64, client int) *generator {
	g := &generator{
		spec:    spec,
		doms:    doms,
		r:       rand.New(rand.NewSource(seed*1000003 + int64(client))),
		nextID:  writeIDBase + client*(1<<24),
		live:    make([][]int, len(spec.writes)),
		deleted: make([][]int, len(spec.writes)),
	}
	for _, t := range spec.reads {
		g.paramSQL = append(g.paramSQL, t.ParamSQL())
	}
	return g
}

// args draws a read template's verb values.
func (g *generator) args(ti int) []any {
	t, d := g.spec.reads[ti], g.doms[ti]
	if len(d.pool) > 0 {
		return []any{d.pool[g.r.Intn(len(d.pool))]}
	}
	base := d.lo + g.r.Intn(d.hi-d.lo+1)
	out := make([]any, max(t.Verbs, 1))
	for i := range out {
		out[i] = base + i*t.Span
	}
	return out
}

// read builds the statement for read template ti with the given values.
func (g *generator) read(ti int, args []any) stmt {
	t := g.spec.reads[ti]
	lit := fmt.Sprintf(t.Format, args...)
	if g.spec.inline {
		return stmt{sql: lit, lit: lit}
	}
	return stmt{sql: g.paramSQL[ti], params: args, lit: lit}
}

// next draws the next statement: a write at the workload's write fraction
// (a delete of a live id 30% of the time, an insert of a fresh id
// otherwise, as loadgen's read/write mix does), else a read.
func (g *generator) next() stmt {
	if len(g.spec.writes) > 0 && g.r.Float64() < g.spec.writeFraction {
		wi := g.r.Intn(len(g.spec.writes))
		wt := g.spec.writes[wi]
		if live := g.live[wi]; len(live) > 0 && g.r.Float64() < 0.3 {
			at := g.r.Intn(len(live))
			id := live[at]
			g.live[wi] = append(live[:at], live[at+1:]...)
			g.deleted[wi] = append(g.deleted[wi], id)
			q := fmt.Sprintf(wt.Delete, id)
			return stmt{sql: q, lit: q, write: true}
		}
		id := g.nextID
		g.nextID++
		g.live[wi] = append(g.live[wi], id)
		args := make([]any, max(wt.Verbs, 1))
		for i := range args {
			args[i] = id
		}
		q := fmt.Sprintf(wt.Format, args...)
		return stmt{sql: q, lit: q, write: true}
	}
	ti := g.r.Intn(len(g.spec.reads))
	return g.read(ti, g.args(ti))
}

// probeSQL returns the read that finds the rows a write template inserts
// for an id: it selects by the vehicle_id every insert sets to the id, and
// its first column holds the id.
func probeSQL(writeTmpl string) (string, error) {
	switch writeTmpl {
	case "write_vehicle":
		return "select V.vehicle_id from VEHICLE V where V.vehicle_id = ?", nil
	case "write_test":
		return "select T.test_id from TEST T where T.vehicle_id = ?", nil
	case "write_obs":
		return "select O.obs_id from OBSERVATION O where O.vehicle_id = ?", nil
	}
	return "", fmt.Errorf("no read-back probe for write template %q", writeTmpl)
}
