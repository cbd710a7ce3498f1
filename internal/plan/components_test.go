package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// analysisFixture compiles stmt against a catalog of three tables — I fed
// by components 0 and 1, J fed by component 2, S certain — and analyzes it.
// A conf item is taken off first, as the engines' front end does.
func analysisFixture(t *testing.T, sql string) *ComponentAnalysis {
	t.Helper()
	cat := CatalogFunc(func(name string) (*relation.Relation, error) {
		return relation.New(schema.New("A", "B")), nil
	})
	cc := ComponentCatalogFunc(func(table string) []int {
		switch table {
		case "I", "i":
			return []int{0, 1}
		case "J", "j":
			return []int{2}
		default:
			return nil
		}
	})
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel := stmt.(*sqlparse.SelectStmt)
	if n := len(sel.Items); n > 0 {
		if _, conf := sel.Items[n-1].Expr.(sqlparse.ConfExpr); conf {
			sel.Items = sel.Items[:n-1]
		}
	}
	prep, err := Prepare(sel, cat)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	an, err := prep.Analyze(cc)
	if err != nil {
		t.Fatalf("analyze %q: %v", sql, err)
	}
	return an
}

func TestComponentAnalysis(t *testing.T) {
	cases := []struct {
		sql          string
		comps        []int
		decomposable bool
		concat       bool
	}{
		// Scans, filters, projections distribute.
		{"select A from I", []int{0, 1}, true, true},
		{"select A from I where B = 1", []int{0, 1}, true, true},
		// DISTINCT dedupes across components per world, which factored
		// storage cannot express: concat only survives one component —
		// wherever the DISTINCT sits, its delta subtracts the certain input.
		{"select distinct A from I", []int{0, 1}, true, false},
		{"select distinct A from J", []int{2}, true, true},
		{"select A from S union all select distinct A from J", []int{2}, true, true},
		{"select A from S union select distinct A from J", []int{2}, true, true},
		{"select distinct A from S union all select A from J", []int{2}, true, true},
		{"select A from S", nil, true, true},
		// Joins against certain relations: fine; the uncertain side must
		// drive (be leftmost) for the concat (materialization) property.
		{"select I.A, S.B from I, S where I.A = S.A", []int{0, 1}, true, true},
		{"select S.B, I.A from S, I where S.A = I.A", []int{0, 1}, true, false},
		// A self-join within one component decomposes, however many times over.
		{"select a.A from J a, J b", []int{2}, true, false},
		{"select a.A from J a, S, J b", []int{2}, true, false},
		{"select a.A from J a, J b, J c", []int{2}, true, false},
		{"select a.A from S, J a, J b", []int{2}, true, false},
		// Unions distribute; concat needs the certain arm first.
		{"select A from I union select A from S", []int{0, 1}, true, false},
		{"select A from S union all select A from I", []int{0, 1}, true, true},
		// Sort is set-safe but reorders certain rows into the middle.
		{"select A from I order by A", []int{0, 1}, true, false},
		// Aggregates and LIMIT are whole-input functions.
		{"select sum(A) from I", []int{0, 1}, false, false},
		{"select sum(A) from S", nil, true, true},
		{"select A from I limit 2", []int{0, 1}, false, false},
		// Cross-component joins correlate.
		{"select I.A from I, J", []int{0, 1, 2}, false, false},
		// Predicate subqueries over uncertain relations couple rows to
		// components; over certain relations they are harmless.
		{"select A from I where exists (select * from J where J.A = I.A)", []int{0, 1, 2}, false, false},
		{"select A from I where B > (select max(B) from S)", []int{0, 1}, true, true},
		{"select A from S where exists (select * from I)", []int{0, 1}, false, false},
		// Aggregate over certain data inside a decomposable query.
		{"select A from I where B >= (select min(B) from S)", []int{0, 1}, true, true},
	}
	for _, c := range cases {
		an := analysisFixture(t, c.sql)
		if len(an.Comps) != len(c.comps) {
			t.Errorf("%q comps = %v, want %v", c.sql, an.Comps, c.comps)
			continue
		}
		for i := range c.comps {
			if an.Comps[i] != c.comps[i] {
				t.Errorf("%q comps = %v, want %v", c.sql, an.Comps, c.comps)
			}
		}
		if an.Decomposable != c.decomposable {
			t.Errorf("%q decomposable = %v, want %v", c.sql, an.Decomposable, c.decomposable)
		}
		if an.Concat != c.concat {
			t.Errorf("%q concat = %v, want %v", c.sql, an.Concat, c.concat)
		}
	}
}

func TestComponentSetOps(t *testing.T) {
	if got := newCompSet([]int{3, 1, 2, 1, 3}); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("newCompSet = %v", got)
	}
	a, b := newCompSet([]int{0, 2}), newCompSet([]int{1, 2, 4})
	if got := a.union(b); len(got) != 4 || got[0] != 0 || got[3] != 4 {
		t.Errorf("union = %v", got)
	}
	if got := a.union(nil); len(got) != 2 {
		t.Errorf("union nil = %v", got)
	}
}

// splitCatalog is a PartsCatalog over fixed certain parts and the
// contributions of alternatives 0, 1, …: alts[t], tagged t.
type splitCatalog struct {
	cert map[string]*relation.Relation
	alts []map[string]*relation.Relation
}

func (c splitCatalog) Certain(name string) (*relation.Relation, error) {
	return mapCatalog(c.cert).Lookup(name)
}

func (c splitCatalog) Delta(name string) (*relation.Relation, error) {
	var parts []colbatch.Part
	var tags []int64
	for t, alt := range c.alts {
		contrib := alt[name]
		if contrib.Len() == 0 {
			continue
		}
		parts = append(parts, colbatch.Part{B: contrib.Batch()})
		for range contrib.Len() {
			tags = append(tags, int64(t))
		}
	}
	if parts == nil {
		return nil, nil
	}
	out := colbatch.Concat(parts[0].B.Schema, parts)
	return relation.FromBatch(out.Extend(Tagged(out.Schema), colbatch.Col{Kind: value.KindInt, Ints: tags})), nil
}

// concat is a's rows followed by b's, under a's schema.
func concat(a, b *relation.Relation) *relation.Relation {
	return relation.FromBatch(colbatch.Concat(a.Schema, []colbatch.Part{{B: a.Batch()}, {B: b.Batch()}}))
}

// Lookup is the table's instance under alternative 0: the certain part
// followed by alternative 0's contribution.
func (c splitCatalog) Lookup(name string) (*relation.Relation, error) {
	cert, err := c.Certain(name)
	if err != nil {
		return nil, err
	}
	if delta := c.alts[0][name]; delta != nil {
		return concat(cert, delta), nil
	}
	return cert.Clone(), nil
}

// only is the catalog listing alternative t alone, as alternative 0.
func (c splitCatalog) only(t int) splitCatalog {
	return splitCatalog{cert: c.cert, alts: c.alts[t : t+1]}
}

// untag returns the rows of a tagged answer tagged tag, in order, without
// the tag column.
func untag(tagged *relation.Relation, tag int64) *relation.Relation {
	b := tagged.Batch()
	w := b.Width() - 1
	keep := make([]int, w)
	for i := range keep {
		keep[i] = i
	}
	var sel []int32
	for r := 0; r < b.Len(); r++ {
		if b.At(r, w).AsInt() == tag {
			sel = append(sel, int32(r))
		}
	}
	return relation.FromBatch(b.Gather(sel).Project(keep, tagged.Schema.Project(keep)))
}

// deltaCorpus is TestBindDelta's statements, one or more per delta rule.
var deltaCorpus = []string{
	`select a, b from U`,
	`select b from U where a >= 2`,
	`select U.b, S.c from U, S where U.a = S.a`,
	`select S.c, U.b from S, U where S.a = U.a`,
	`select U.b, V.b from U, V where U.a = V.a`,
	`select u1.b, u2.b from U u1, U u2 where u1.a = u2.a`,
	`select a from S union all select a from U`,
	`select a from U union all select a from S`,
	`select a from U union select a from V`,
	`select distinct a from U`,
	`select a from S union all select distinct a from U`,
	`select distinct a from S union all select distinct b from U`,
	`select a, b from U order by b desc`,
	`select u1.b, u2.b, u3.b from U u1, U u2, U u3`,
	`select S.c, u1.b, u2.b from S, U u1, U u2`,
	`select u1.b, S.c, u2.b from U u1, S, U u2`,
	`select b from U where exists (select * from S where S.a = U.a)`,
	`select b from U where a > (select min(a) from S)`,
	`select a, b from E`,
	`select E.b, S.c from E, S`,
	`select c from S`,
	// Keyed joins: mixed-kind and NULL keys, keys projected away, filters
	// sunk onto the certain and the uncertain side, self-joins within
	// the one component, a three-way chain.
	`select U.b, F.z from U, F where U.a = F.a`,
	`select F.z from F, U where F.a = U.a and U.b > 10`,
	`select U.b from U, S where U.a = S.a and S.c > 100`,
	`select G.b, F.z from G, F where G.a = F.a`,
	`select F.z, G.b from F, G where G.a = F.a and F.z > 6`,
	`select g1.b, g2.b from G g1, G g2 where g1.a = g2.a`,
	`select u1.b, u2.b from U u1, U u2 where u1.a = u2.a and u1.b = u2.b`,
	`select S.c, G.b, F.z from S, G, F where S.a = G.a and G.a = F.a`,
}

// TestBindDelta checks the delta rules operator by operator on one selected
// contribution: base ++ ΔQ must equal Q over the full instances row for row
// where the plan is concat-structured, as a bag wherever nothing dedups, and
// as a set everywhere. The keyed joins run over F and G, whose keys mix ints
// with the floats `=` equates them to, −0 and NULL.
func TestBindDelta(t *testing.T) {
	cat := splitCatalog{
		cert: map[string]*relation.Relation{
			"U": rel(t, []string{"a", "b"}, []int64{1, 10}, []int64{2, 20}),
			"V": rel(t, []string{"a", "b"}, []int64{1, 11}),
			"S": rel(t, []string{"a", "c"}, []int64{1, 100}, []int64{3, 300}, []int64{3, 301}),
			"E": rel(t, []string{"a", "b"}),
			"F": mkrel([]string{"a", "z"}, []any{1.0, 7}, []any{nil, 8}, []any{3, 9}, []any{math.Copysign(0, -1), 6}),
			"G": mkrel([]string{"a", "b"}, []any{1, 1}, []any{nil, 2}),
		},
		alts: []map[string]*relation.Relation{{
			"U": rel(t, []string{"a", "b"}, []int64{3, 30}, []int64{1, 10}),
			"V": rel(t, []string{"a", "b"}, []int64{3, 31}),
			"E": rel(t, []string{"a", "b"}, []int64{7, 70}),
			"G": mkrel([]string{"a", "b"}, []any{3.0, 3}, []any{nil, 4}, []any{0, 5}, []any{1.0, 6}),
		}},
	}
	cc := ComponentCatalogFunc(func(table string) []int {
		if cat.alts[0][table] != nil {
			return []int{0}
		}
		return nil
	})
	for _, sql := range deltaCorpus {
		prep, err := Prepare(mustParseSelect(t, sql), cat)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		an, err := prep.Analyze(cc)
		if err != nil || !an.Decomposable {
			t.Fatalf("%q: analysis %+v, %v", sql, an, err)
		}
		eval := func(op algebra.Operator, err error) *relation.Relation {
			t.Helper()
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			out, err := algebra.Collect(op, nil)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			return out
		}
		full := eval(prep.Bind(cat, nil))
		base := eval(prep.Bind(CatalogFunc(cat.Certain), nil))
		delta := untag(eval(prep.Deltas().Bind(cat, nil)), 0)
		sum := concat(base, delta)
		if !sum.EqualSet(full) {
			t.Errorf("%q: base ∪ Δ differs from the full answer\nbase:\n%sΔ:\n%sfull:\n%s", sql, base, delta, full)
		}
		if dedups := strings.Contains(sql, "distinct") || strings.Contains(sql, "union select"); !dedups && sum.Sort().String() != full.Sort().String() {
			t.Errorf("%q: base ++ Δ differs from the full answer as a bag\nbase:\n%sΔ:\n%sfull:\n%s", sql, base, delta, full)
		}
		if an.Concat && sum.String() != full.String() {
			t.Errorf("%q: base ++ Δ differs from the full answer\nbase:\n%sΔ:\n%sfull:\n%s", sql, base, delta, full)
		}
		if len(an.Comps) == 0 && delta.Len() != 0 {
			t.Errorf("%q: a world-independent query has a delta:\n%s", sql, delta)
		}
	}

	// Whole-input operators over a component have no delta.
	prep, err := Prepare(mustParseSelect(t, `select sum(b) from U`), cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Deltas().Bind(cat, nil); !errors.Is(err, ErrPlan) {
		t.Errorf("delta of an aggregate over a component: %v, want ErrPlan", err)
	}
}

// TestTaggedDeltaIsEveryAlternative checks the tag rules: one bind over
// three alternatives' contributions, tagged 0, 1 and 2, answers for each tag
// t exactly what the delta of alternative t alone answers, row for row — so
// no row of one alternative meets a row of another, not even in a self-join
// of the one component, where only the tags keep them apart. The
// alternatives repeat each other's join keys and the certain rows.
func TestTaggedDeltaIsEveryAlternative(t *testing.T) {
	cat := splitCatalog{
		cert: map[string]*relation.Relation{
			"U": rel(t, []string{"a", "b"}, []int64{1, 10}, []int64{2, 20}),
			"V": rel(t, []string{"a", "b"}, []int64{1, 11}),
			"S": rel(t, []string{"a", "c"}, []int64{1, 100}, []int64{3, 300}, []int64{3, 301}),
			"E": rel(t, []string{"a", "b"}),
			"F": mkrel([]string{"a", "z"}, []any{1.0, 7}, []any{nil, 8}, []any{3, 9}, []any{math.Copysign(0, -1), 6}),
			"G": mkrel([]string{"a", "b"}, []any{1, 1}, []any{nil, 2}),
		},
		alts: []map[string]*relation.Relation{{
			"U": rel(t, []string{"a", "b"}, []int64{3, 30}, []int64{1, 10}, []int64{1, 12}),
			"V": rel(t, []string{"a", "b"}, []int64{3, 31}),
			"E": rel(t, []string{"a", "b"}, []int64{7, 70}),
			"G": mkrel([]string{"a", "b"}, []any{3.0, 3}, []any{nil, 4}, []any{0, 5}, []any{1.0, 6}),
		}, {
			"U": rel(t, []string{"a", "b"}, []int64{1, 13}, []int64{3, 33}, []int64{2, 20}),
			"G": mkrel([]string{"a", "b"}, []any{1, 7}, []any{3, 8}),
		}, {
			"U": rel(t, []string{"a", "b"}, []int64{3, 34}, []int64{3, 30}),
			"V": rel(t, []string{"a", "b"}, []int64{1, 35}, []int64{3, 36}),
			"E": rel(t, []string{"a", "b"}, []int64{7, 71}),
		}},
	}
	for _, sql := range deltaCorpus {
		prep, err := Prepare(mustParseSelect(t, sql), cat)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		collect := func(c PartsCatalog) *relation.Relation {
			t.Helper()
			op, err := prep.Deltas().Bind(c, nil)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			out, err := algebra.Collect(op, nil)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			return out
		}
		tagged := collect(cat)
		rows := 0
		for tag := range cat.alts {
			got, want := untag(tagged, int64(tag)), untag(collect(cat.only(tag)), 0)
			rows += got.Len()
			if got.String() != want.String() {
				t.Errorf("%q: rows tagged %d\n%sdiffer from alternative %d's delta alone\n%s", sql, tag, got, tag, want)
			}
		}
		if rows != tagged.Len() {
			t.Errorf("%q: %d of %d rows carry a tag of no listed alternative:\n%s", sql, tagged.Len()-rows, tagged.Len(), tagged)
		}
	}
}

// TestDeltasShareCertainKeys: the deltas of one statement subtract a
// DISTINCT's certain input through one evaluation of it, however many are
// bound and drained, concurrently included; another statement's Deltas
// evaluates its own.
func TestDeltasShareCertainKeys(t *testing.T) {
	var certReads atomic.Int64
	cert := rel(t, []string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	catFor := func(delta *relation.Relation) PartsCatalog {
		return countingCertain{
			splitCatalog{cert: map[string]*relation.Relation{"U": cert}, alts: []map[string]*relation.Relation{{"U": delta}}},
			&certReads,
		}
	}
	cats := []PartsCatalog{
		catFor(rel(t, []string{"a", "b"}, []int64{1, 11}, []int64{3, 30})),
		catFor(rel(t, []string{"a", "b"}, []int64{2, 21})),
		catFor(rel(t, []string{"a", "b"}, []int64{4, 40}, []int64{4, 41})),
	}
	prep, err := Prepare(mustParseSelect(t, `select distinct a from U`), mapCatalog{"U": cert})
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []int64{1, 2} {
		ds := prep.Deltas()
		got := make([]string, len(cats))
		var wg sync.WaitGroup
		for i, cat := range cats {
			wg.Add(1)
			go func() {
				defer wg.Done()
				op, err := ds.Bind(cat, nil)
				if err != nil {
					got[i] = err.Error()
					return
				}
				out, err := algebra.Collect(op, nil)
				if err != nil {
					got[i] = err.Error()
					return
				}
				var as []int64
				for _, row := range out.Rows() {
					as = append(as, row[0].AsInt())
				}
				got[i] = fmt.Sprint(as)
			}()
		}
		wg.Wait()
		for i, want := range []string{"[3]", "[]", "[4]"} {
			if got[i] != want {
				t.Errorf("round %d: delta %d = %s, want %s", round, i, got[i], want)
			}
		}
		if n := certReads.Load(); n != want {
			t.Errorf("round %d: the certain part was read %d times, want %d", round, n, want)
		}
	}
}

// countingCertain counts the Certain lookups of a splitCatalog.
type countingCertain struct {
	splitCatalog
	reads *atomic.Int64
}

func (c countingCertain) Certain(name string) (*relation.Relation, error) {
	c.reads.Add(1)
	return c.splitCatalog.Certain(name)
}

// TestBindSharesStore: a relation built row by row past colbatch.Floor is
// laid out as columns once, while it is built, and every bind scans that
// store itself under the binding's qualified schema: two binds share its
// columns, and an Append after the first must still be seen.
func TestBindSharesStore(t *testing.T) {
	rows := make([][]int64, 64)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	stored := rel(t, []string{"a"}, rows...)
	if stored.Batch().RowBacked() {
		t.Fatalf("a relation of %d rows built row by row is in row form", len(rows))
	}
	cat := mapCatalog{"R": stored}
	prep, err := Prepare(mustParseSelect(t, `select a from R r1`), cat)
	if err != nil {
		t.Fatal(err)
	}
	scanned := func() *colbatch.Batch {
		t.Helper()
		op, err := prep.Bind(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := algebra.CollectBatch(op.(*algebra.Project).Child, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := scanned(), scanned()
	if &b1.Col(0).Ints[0] != &b2.Col(0).Ints[0] {
		t.Error("two binds scanned different columns")
	}
	if &b1.Col(0).Ints[0] != &stored.Batch().Col(0).Ints[0] {
		t.Error("the binds' columns are not the stored relation's")
	}
	if q := b1.Schema.At(0).Qualifier; q != "r1" {
		t.Errorf("bound batch schema qualifier %q, want r1", q)
	}
	stored.MustAppend(tuple.Tuple{value.Int(64)})
	if b3 := scanned(); b3.Len() != 65 || b3.At(64, 0).AsInt() != 64 {
		t.Errorf("bind after Append scans %d rows, want 65 ending in 64", b3.Len())
	}
	if b1.Len() != 64 {
		t.Errorf("the earlier bind's batch grew to %d rows", b1.Len())
	}
}

// TestScalarAggregateShapes: the analysis recognises a scalar SUM or COUNT
// whose input keeps the bag identity, alone in the select list or compared
// with a constant in Example 2.10's boolean form, and nothing else.
func TestScalarAggregateShapes(t *testing.T) {
	for _, c := range []struct {
		sql   string
		kind  string // "" when not recognised
		outer string
	}{
		{"select sum(B) from I", "sum", ""},
		{"select count(B) from I where A > 1", "count", ""},
		{"select count(*) from I", "count", ""},
		{"select sum(I.B) as S from I, S where I.A = S.A", "sum", ""},
		{"select sum(B + 1) from I", "sum", ""},
		{"select 50 > (select sum(B) from I) from I", "", ""},
		{"select conf from I where 50 > (select sum(B) from I)", "sum", "I"},
		{"select conf from I where (select count(*) from I where B = 2) <= -4", "count", "I"},
		{"select conf from S where 1 + 1 = (select sum(B) from I)", "sum", "S"},
		// Any other shape keeps the merge.
		{"select sum(B) + 1 from I", "", ""},
		{"select sum(B), count(B) from I", "", ""},
		{"select sum(distinct B) from I", "", ""},
		{"select max(B) from I", "", ""},
		{"select avg(B) from I", "", ""},
		{"select sum(B) from I group by A", "", ""},
		{"select sum(B) from I having sum(B) > 1", "", ""},
		{"select sum(B) from I limit 1", "", ""},
		{"select sum(a.B) from I a, I b", "", ""},
		{"select sum(I.B) from S, I where S.A = I.A", "", ""},
		{"select sum(B) from I where B > (select min(B) from J)", "", ""},
		{"select conf from I where A > (select sum(B) from I)", "", ""},
		{"select conf from I where 50 > (select sum(B) from I) and A = 1", "", ""},
		{"select conf from I where 50 > (select sum(x.B) from I x where x.A = I.A)", "", ""},
		{"select conf from I, S where 50 > (select sum(B) from I)", "", ""},
		{"select conf from I where 50 > (select max(B) from I)", "", ""},
		{"select conf from I where (select sum(B) from I) > (select count(*) from I)", "", ""},
		{"select sum(B) from S", "", ""},
	} {
		an := analysisFixture(t, c.sql)
		got, outer := "", ""
		if an.Scalar != nil {
			got, outer = an.Scalar.Kind.String(), an.Scalar.Outer
		}
		if got != c.kind || outer != c.outer {
			t.Errorf("%q: scalar %q over outer %q, want %q and %q", c.sql, got, outer, c.kind, c.outer)
		}
	}
}
