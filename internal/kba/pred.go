package kba

import (
	"fmt"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

// RangeBounds resolves an IndexRange node's bound Args into the values the
// index walk takes. It fails on unresolved slots.
func RangeBounds(n *IndexRange) (lo, hi *relation.Value, err error) {
	resolve := func(a *Arg) (*relation.Value, error) {
		if a == nil {
			return nil, nil
		}
		if a.IsSlot {
			return nil, fmt.Errorf("kba: plan template has unbound parameters (call Bind before executing)")
		}
		v := a.Lit
		return &v, nil
	}
	if lo, err = resolve(n.Lo); err != nil {
		return nil, nil, err
	}
	hi, err = resolve(n.Hi)
	return lo, hi, err
}

// RangeWalkLimit resolves an IndexRange node's pushed-down LIMIT into the
// posting cap the walk takes: -1 when the node carries none. It fails on
// unresolved slots and on non-integer or negative bound values (which the
// query-level LIMIT validation rejects before execution anyway).
func RangeWalkLimit(n *IndexRange) (int, error) {
	if n.Limit == nil {
		return -1, nil
	}
	if n.Limit.IsSlot {
		return 0, fmt.Errorf("kba: plan template has unbound parameters (call Bind before executing)")
	}
	v := n.Limit.Lit
	if v.Kind != relation.KindInt || v.Int < 0 {
		return 0, fmt.Errorf("kba: index range limit must be a non-negative integer, got %s", v)
	}
	return int(v.Int), nil
}

// CompilePreds compiles predicates over the attribute layout into a single
// row filter.
func CompilePreds(attrs []string, preds []Pred) (func(relation.Tuple) bool, error) {
	type check func(relation.Tuple) bool
	var checks []check
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	for _, p := range preds {
		if p.hasSlots() {
			return nil, fmt.Errorf("kba: predicate %s has unbound parameters (call Bind before executing)", p)
		}
		i, ok := pos[p.Attr]
		if !ok {
			return nil, fmt.Errorf("kba: predicate attribute %q not in %v", p.Attr, attrs)
		}
		switch {
		case len(p.In) > 0:
			set := make(map[string]bool, len(p.In))
			for _, v := range p.In {
				set[relation.KeyString(relation.Tuple{v})] = true
			}
			checks = append(checks, func(t relation.Tuple) bool {
				return set[relation.KeyString(relation.Tuple{t[i]})]
			})
		case p.RAttr != "":
			j, ok := pos[p.RAttr]
			if !ok {
				return nil, fmt.Errorf("kba: predicate attribute %q not in %v", p.RAttr, attrs)
			}
			op := p.Op
			checks = append(checks, func(t relation.Tuple) bool {
				return cmpOK(t[i], op, t[j])
			})
		case p.Lit != nil:
			op, lit := p.Op, *p.Lit
			checks = append(checks, func(t relation.Tuple) bool {
				return cmpOK(t[i], op, lit)
			})
		default:
			return nil, fmt.Errorf("kba: malformed predicate %v", p)
		}
	}
	return func(t relation.Tuple) bool {
		for _, c := range checks {
			if !c(t) {
				return false
			}
		}
		return true
	}, nil
}

func cmpOK(a relation.Value, op sql.CmpOp, b relation.Value) bool {
	c := relation.Compare(a, b)
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	default:
		return false
	}
}
