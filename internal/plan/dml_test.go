package plan

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// applyRowsOracle is the row rewrite as it ran over tuples before Apply
// took batches: one context per row, the predicate first, then the SET
// values in order, the first error returned as is.
func applyRowsOracle(b *BoundDML, tuples []tuple.Tuple) (out []tuple.Tuple, changed int, err error) {
	out = make([]tuple.Tuple, 0, len(tuples))
	for _, t := range tuples {
		ctx := &expr.Context{Schema: b.sch, Tuple: t, Outer: b.outer}
		match := true
		if b.pred != nil {
			v, err := b.pred.Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			match = v.Truth()
		}
		if !match {
			out = append(out, t)
			continue
		}
		changed++
		if b.del {
			continue
		}
		nt := t.Clone()
		for j := range b.setExprs {
			v, err := b.setExprs[j].Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			nt[b.setIdx[j]] = v
		}
		out = append(out, nt)
	}
	return out, changed, nil
}

// dmlColumns are the target's columns: one per storage shape a column can
// take — int, float, text and bool (each with NULLs sprinkled in), all-NULL,
// and mixed kinds (the generic representation).
var dmlColumns = []string{"i", "f", "s", "b", "n", "m"}

func randDMLRows(rng *rand.Rand, n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for r := range rows {
		t := tuple.Tuple{
			value.Int(int64(rng.Intn(8))),
			value.Float(float64(rng.Intn(8)) / 2),
			value.Str(fmt.Sprintf("s%d", rng.Intn(4))),
			value.Bool(rng.Intn(2) == 0),
			value.Null(),
			[]value.Value{value.Int(int64(rng.Intn(3))), value.Str("x"), value.Float(0.5), value.Bool(true)}[rng.Intn(4)],
		}
		for j := 0; j < 4; j++ {
			if rng.Intn(8) == 0 {
				t[j] = value.Null()
			}
		}
		rows[r] = t
	}
	return rows
}

// dmlPreds and dmlSets are the WHERE and SET fragments the random templates
// draw from: comparisons and connectives over every shape, NULL
// predicates, subqueries (correlated and not), a SET that changes a
// column's kind, and arithmetic that fails — by division by zero or on a
// text operand — at the rows whose values trigger it.
var (
	dmlPreds = []string{
		"i > 3", "i >= 2 and f < 2", "s = 's1' or b", "not b", "b and i < 5",
		"n is null and i = 1", "n = 1", "null", "m = 1", "m = 'x' or i = 0",
		"i in (1, 2, null)", "f <> 1.5 and not (i = 2 or b)",
		"10 / (i - 3) > 2", "i + m > 1", "b and 10 / (i - 5) > 0",
		"exists (select * from S where S.K = i)", "i < (select max(K) from S)",
		"i = 4 and (select count(*) from S where S.K = i) > 0",
	}
	dmlSets = []string{
		"i = i + 1", "f = f * 2", "s = 'z'", "b = not b", "n = i", "m = null",
		"i = 's'", "f = i", "i = 100 / (i - 6)", "s = s + 1", "f = 10 / (i - 2)", "s = m + 1",
		"i = (select min(K) from S)", "f = (select count(*) from S where S.K = i)",
		"i = (select min(K) from S) % (i - 1)",
	}
)

func randDMLStatement(rng *rand.Rand) string {
	var where string
	if rng.Intn(6) > 0 {
		where = " where " + dmlPreds[rng.Intn(len(dmlPreds))]
	}
	if rng.Intn(3) == 0 {
		return "delete from T" + where
	}
	sets := make([]string, 1+rng.Intn(3))
	for j := range sets {
		sets[j] = dmlSets[rng.Intn(len(dmlSets))]
	}
	if rng.Intn(4) == 0 {
		sets = append(sets, "i = i * 3") // a second SET of one column
	}
	return "update T set " + strings.Join(sets, ", ") + where
}

// bindDML compiles and binds a DML statement of a table of schema sch over
// cat's other tables.
func bindDML(t testing.TB, sql string, sch *schema.Schema, cat mapCatalog) *BoundDML {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	cat = maps.Clone(cat)
	var p *PreparedDML
	switch x := st.(type) {
	case *sqlparse.Update:
		cat[x.Table] = relation.New(sch)
		p, err = PrepareUpdateStmt(x, cat)
	case *sqlparse.Delete:
		cat[x.Table] = relation.New(sch)
		p, err = PrepareDeleteStmt(x, cat)
	}
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	b, err := p.Bind(cat, nil, nil)
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return b
}

// renderRows renders tuples cell by cell with each value's kind and
// canonical bytes, so two renderings agree exactly when the rows are value
// for value identical, in order.
func renderRows(rows []tuple.Tuple) string {
	var b strings.Builder
	for _, t := range rows {
		for _, v := range t {
			fmt.Fprintf(&b, "%d:%x ", v.Kind(), v.Encode(nil))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderApply(rows []tuple.Tuple, changed int, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("changed %d\n%s", changed, renderRows(rows))
}

// TestApplyBatchMatchesRows holds the batch rewrite to the tuple loop it
// replaced: random UPDATE and DELETE templates over random targets, each
// stored once columnar and once row-backed, must yield the oracle's rows
// value for value and in order, its changed count and its error text. A
// columnar target whose WHERE or SET holds a subquery runs the kernels' row
// evaluator over its columns, and enough runs must do so.
func TestApplyBatchMatchesRows(t *testing.T) {
	t.Parallel()
	sch := schema.New(dmlColumns...)
	cat := mapCatalog{"S": mkrel([]string{"K"}, []any{1}, []any{4}, []any{6})}
	errs, changedRuns, columnarOut, columnarRowPath := 0, 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := randDMLRows(rng, rng.Intn(60))
		sql := randDMLStatement(rng)
		b := bindDML(t, sql, sch, cat)
		rowPath := !expr.Vectorizable(b.pred)
		for _, e := range b.setExprs {
			rowPath = rowPath || !expr.Vectorizable(e)
		}
		want := renderApply(applyRowsOracle(b, rows))
		if strings.HasPrefix(want, "error: ") {
			errs++
		}
		// Both forms: columns whatever the size, and FromRows, which keeps
		// rows under colbatch.Floor.
		columnar := colbatch.FromCols(sch, make([]colbatch.Col, sch.Len()), 0)
		for _, t := range rows {
			columnar.Append(t)
		}
		for _, in := range []*colbatch.Batch{columnar, colbatch.FromRows(sch, rows)} {
			if rowPath && !in.RowBacked() && in.Len() > 0 {
				columnarRowPath++
			}
			out, changed, err := b.Apply(in)
			var got string
			if err != nil {
				got = renderApply(nil, 0, err)
			} else {
				got = renderApply(out.Rows(), changed, nil)
				if changed == 0 && out != in {
					t.Errorf("seed %d %q: nothing changed but the input was not returned", seed, sql)
				}
				if changed > 0 {
					changedRuns++
					if out.RowBacked() != in.RowBacked() {
						t.Errorf("seed %d %q: row-backed %v in, %v out", seed, sql, in.RowBacked(), out.RowBacked())
					}
					if !out.RowBacked() {
						columnarOut++
					}
				}
			}
			if got != want {
				t.Fatalf("seed %d %q (row-backed %v):\nbatch:\n%s\nrows:\n%s", seed, sql, in.RowBacked(), got, want)
			}
		}
	}
	if errs < 20 || changedRuns < 200 || columnarOut < 100 || columnarRowPath < 120 {
		t.Fatalf("weak coverage: %d errors, %d changing runs, %d columnar outputs, %d columnar inputs evaluated row by row",
			errs, changedRuns, columnarOut, columnarRowPath)
	}
}

// TestApplyCopyOnWrite checks that a columnar UPDATE leaves its input
// alone: the input's rows are unchanged after the rewrite and after an
// insert into the result, and an UPDATE that matches nothing hands back
// the very input batch, so the caller keeps its relation.
func TestApplyCopyOnWrite(t *testing.T) {
	sch := schema.New(dmlColumns...)
	rows := randDMLRows(rand.New(rand.NewSource(1)), 50)
	in := colbatch.FromRows(sch, rows)
	before := renderRows(in.Rows())

	b := bindDML(t, "update T set i = i + 100, s = 'u' where f >= 2", sch, mapCatalog{})
	out, changed, err := b.Apply(in)
	if err != nil || changed == 0 {
		t.Fatalf("update: changed %d, %v", changed, err)
	}
	if got := renderRows(in.Rows()); got != before {
		t.Fatalf("the update changed its input:\n%s\nwant:\n%s", got, before)
	}
	res := relation.FromBatch(out)
	res.MustAppend(tuple.Tuple{value.Int(-1), value.Float(-1), value.Str("new"), value.Bool(false), value.Int(7), value.Int(7)})
	if got := renderRows(in.Rows()); got != before {
		t.Fatalf("an insert into the result changed the input:\n%s\nwant:\n%s", got, before)
	}
	if res.Len() != in.Len()+1 {
		t.Fatalf("result has %d rows, want %d", res.Len(), in.Len()+1)
	}

	none := bindDML(t, "update T set i = 0 where i > 1000", sch, mapCatalog{})
	if out, changed, err := none.Apply(in); err != nil || changed != 0 || out != in {
		t.Fatalf("an update matching nothing: changed %d, err %v, same batch %v", changed, err, out == in)
	}
	del := bindDML(t, "delete from T where i > 1000", sch, mapCatalog{})
	if out, changed, err := del.Apply(in); err != nil || changed != 0 || out != in {
		t.Fatalf("a delete matching nothing: changed %d, err %v, same batch %v", changed, err, out == in)
	}
}

// BenchmarkDMLApply rewrites a 40 000-row columnar batch of which one row
// in ten matches — the shape of an UPDATE or DELETE of an imported
// relation. Allocations must stay O(columns), not O(rows). update-subquery's
// WHERE holds a scalar subquery (unshared: the bind has no memo), so its
// predicate runs row by row over the columns, and what it allocates is the
// subquery's per-row work, not the batch's rows.
func BenchmarkDMLApply(b *testing.B) {
	const n = 40000
	sch := schema.New("K", "A", "Cat", "Label", "W")
	in := colbatch.New(sch)
	for i := 0; i < n; i++ {
		in.Append(tuple.Tuple{value.Int(int64(i)), value.Int(int64(i % 1000)), value.Int(int64(i % 4)),
			value.Str(fmt.Sprintf("w%d", i%50)), value.Int(int64(1 + i%5))})
	}
	cat := mapCatalog{"S": mkrel([]string{"K"}, []any{12000})}
	for _, c := range []struct{ name, sql string }{
		{"update", "update B set A = A + 5 where K >= 8000 and K < 12000"},
		{"delete", "delete from B where K >= 8000 and K < 12000"},
		{"update-subquery", "update B set A = A + 5 where K < (select max(K) from S) and K >= 8000"},
	} {
		b.Run(c.name, func(b *testing.B) {
			bound := bindDML(b, c.sql, sch, cat)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, changed, err := bound.Apply(in)
				if err != nil || changed != n/10 || out == in {
					b.Fatalf("changed %d, err %v", changed, err)
				}
			}
		})
	}
}
