package wsd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
)

// memoShapes are subquery-bearing statements beyond the corpora: the forms
// the statement memo shares — a scalar aggregate over the uncertain table,
// subqueries in the select list, under HAVING, in IN, nested, across a
// UNION, over a join, in a split's FROM/WHERE and inside an ASSERT. The
// first is Example 2.10's form over max: over sum the compact engine folds
// it by convolution, evaluating no subquery (convolution_test.go checks it
// against the merge route).
var memoShapes = []string{
	"select conf from I where 4 > (select max(V) from I)",
	"select possible K, V from I where 3 > (select sum(V) from I)",
	"select possible K, (select count(*) from S) from I",
	"select possible K from I where V in (select V from S where Y <> 'y0')",
	"select possible V, count(*) from I group by V having count(*) >= (select min(V) from S)",
	"select possible K from I where exists (select * from S where exists (select * from P where P.V = S.V))",
	"select possible K from I where V >= (select min(V) from S) union select K from P where V <= (select max(V) from S)",
	"select conf, K from I where exists (select * from S, P where S.V = P.V and P.K = 0)",
	"create table X as select K, V, W from I where V >= (select min(V) from S) repair by key V",
	"create table X as select K, V from I assert exists (select * from P where V >= (select min(V) from S))",
	"update I set W = (select count(*) from S where S.V >= 1) where V <= (select max(V) from P)",
}

// memoCorpus returns every statement of the componentwise, DML, GROUP
// WORLDS and factorized-CTAS (split) equivalence corpora, and memoShapes.
func memoCorpus() []string {
	var out []string
	for _, q := range componentwiseQueries {
		out = append(out, q.sql)
	}
	for _, q := range groupWorldsQueries {
		out = append(out, q.sql)
	}
	for _, st := range dmlStatements {
		out = append(out, st.sql)
	}
	for _, st := range ctasStatements {
		out = append(out, st.sql)
	}
	return append(out, memoShapes...)
}

// correlator appends to every expression subquery of a statement a
// condition that is always true but reads a column of the enclosing block,
// `(o.C IS NULL OR o.C IS NOT NULL)`, so the planner marks it correlated
// and it runs per outer row instead of once through the statement's memo.
type correlator struct {
	cols func(table string) []string // a table's columns
	n    int                         // subqueries correlated
	free int                         // subqueries with no enclosing row (ASSERT), left as written
}

func (c *correlator) statement(st sqlparse.Statement) {
	switch s := st.(type) {
	case *sqlparse.SelectStmt:
		c.block(s)
	case *sqlparse.CreateTableAs:
		c.block(s.Query)
	case *sqlparse.Update:
		target := c.columns([]sqlparse.TableRef{{Name: s.Table}})
		for i := range s.Set {
			s.Set[i].Value = c.expr(s.Set[i].Value, target)
		}
		s.Where = c.expr(s.Where, target)
	case *sqlparse.Delete:
		s.Where = c.expr(s.Where, c.columns([]sqlparse.TableRef{{Name: s.Table}}))
	}
}

// columns returns a column of each binding, qualified by the binding.
func (c *correlator) columns(from []sqlparse.TableRef) []sqlparse.ColumnRef {
	var out []sqlparse.ColumnRef
	for _, ref := range from {
		if cols := c.cols(ref.Name); len(cols) > 0 {
			out = append(out, sqlparse.ColumnRef{Qualifier: ref.Binding(), Name: cols[0]})
		}
	}
	return out
}

// block correlates the subqueries of a SELECT and its UNION arms, each arm
// against its own FROM bindings — under HAVING, its GROUP BY columns.
func (c *correlator) block(s *sqlparse.SelectStmt) {
	for arm := s; arm != nil; arm = arm.Union {
		outer := c.columns(arm.From)
		for i := range arm.Items {
			arm.Items[i].Expr = c.expr(arm.Items[i].Expr, outer)
		}
		arm.Where = c.expr(arm.Where, outer)
		var grouped []sqlparse.ColumnRef
		for _, g := range arm.GroupBy {
			if g.Qualifier == "" {
				g.Qualifier = arm.From[0].Binding()
			}
			grouped = append(grouped, g)
		}
		arm.Having = c.expr(arm.Having, grouped)
		arm.Assert = c.expr(arm.Assert, nil)
		if arm.GroupWorlds != nil {
			c.block(arm.GroupWorlds)
		}
	}
}

func (c *correlator) expr(e sqlparse.Expr, outer []sqlparse.ColumnRef) sqlparse.Expr {
	switch n := e.(type) {
	case sqlparse.BinaryExpr:
		n.L, n.R = c.expr(n.L, outer), c.expr(n.R, outer)
		return n
	case sqlparse.UnaryExpr:
		n.E = c.expr(n.E, outer)
		return n
	case sqlparse.IsNullExpr:
		n.E = c.expr(n.E, outer)
		return n
	case sqlparse.FuncCall:
		for i := range n.Args {
			n.Args[i] = c.expr(n.Args[i], outer)
		}
		return n
	case sqlparse.ExistsExpr:
		c.sub(n.Sub, outer)
	case sqlparse.SubqueryExpr:
		c.sub(n.Sub, outer)
	case sqlparse.InExpr:
		n.Left = c.expr(n.Left, outer)
		for i := range n.List {
			n.List[i] = c.expr(n.List[i], outer)
		}
		if n.Sub != nil {
			c.sub(n.Sub, outer)
		}
		return n
	}
	return e
}

// sub correlates the subquery q, after its own subqueries, each arm to the
// first outer column; an own binding of the outer column's name is renamed,
// so that the column reaches past it.
func (c *correlator) sub(q *sqlparse.SelectStmt, outer []sqlparse.ColumnRef) {
	c.block(q)
	for arm := q; arm != nil; arm = arm.Union {
		if len(outer) == 0 {
			c.free++
			continue
		}
		col := outer[0]
		for i := range arm.From {
			if strings.EqualFold(arm.From[i].Binding(), col.Qualifier) {
				arm.From[i].Alias = arm.From[i].Binding() + "_in"
			}
		}
		always := sqlparse.BinaryExpr{Op: "OR", L: sqlparse.IsNullExpr{E: col}, R: sqlparse.IsNullExpr{E: col, Negated: true}}
		if arm.Where == nil {
			arm.Where = always
		} else {
			arm.Where = sqlparse.BinaryExpr{Op: "AND", L: arm.Where, R: always}
		}
		c.n++
	}
}

// memoFixture is the corpora's fixture: fuzzPair's I, P and S plus the
// IMPORTed J, on both engines, the same for the same seed.
func memoFixture(t *testing.T, seed int64) (*core.Session, *WSD) {
	t.Helper()
	s, d := fuzzPair(t, rand.New(rand.NewSource(seed)))
	importTarget(t, rand.New(rand.NewSource(seed)), s, d)
	return s, d
}

// exactResult renders a result world by world and group by group, rows in
// stored order and probabilities in full.
func exactResult(res *core.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s\n", res.Kind, res.Msg)
	for _, w := range res.PerWorld {
		fmt.Fprintf(&b, "world %s %v\n%s\n", w.World, w.Prob, w.Rel.StoredString())
	}
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "group %v %v\n%s\n", g.Worlds, g.Prob, g.Rel.StoredString())
	}
	return b.String()
}

// TestMemoDifferential is the statement memo's differential test: every
// subquery-bearing statement of the corpora runs as written — its
// uncorrelated subqueries once per distinct input, through the memo — and
// again with every subquery correlated by an always-true condition on an
// outer column, so that it runs per outer row. On both engines, over
// identical fixtures, the two forms answer alike world by world and
// closure by core.Closure, and leave the same world-set behind. The correlated
// form reports no memoised evaluation in its trace (the planner marked its
// subqueries correlated) unless an ASSERT's subquery, which has no outer
// row, remains; the written forms do report some.
func TestMemoDifferential(t *testing.T) {
	t.Parallel()
	names, _ := memoFixture(t, 0)
	cols := func(table string) []string {
		rel, err := names.Set().Worlds[0].Lookup(table)
		if err != nil {
			return nil // a table of another fixture, in a statement this test skips
		}
		return rel.Schema.Names()
	}
	evals := map[string]int{}
	ran := 0
	for _, sql := range memoCorpus() {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		c := &correlator{cols: cols}
		c.statement(parsed)
		if c.n == 0 {
			continue // no expression subquery to correlate
		}
		correlated := parsed.String()
		ran++
		for seed := int64(1); seed <= 3; seed++ {
			ws, wd := memoFixture(t, seed)
			cs, cd := memoFixture(t, seed)
			for _, e := range []struct {
				name                string
				written, correlated core.Engine
				worlds              func(core.Engine) []worldView
			}{
				{"naive", ws, cs, func(e core.Engine) []worldView { return wholeWorlds(e.(*core.Session).Set().Worlds) }},
				{"compact", wd, cd, func(e core.Engine) []worldView {
					set, err := e.(*WSD).Expand(1 << 14)
					if err != nil {
						t.Fatal(err)
					}
					return wholeWorlds(set.Worlds)
				}},
			} {
				label := fmt.Sprintf("seed %d %s %q", seed, e.name, sql)
				wtr, ctr := obs.NewTrace(sql), obs.NewTrace(correlated)
				want := exactResult(core.ExecTraced(e.written, sql, nil, wtr))
				got := exactResult(core.ExecTraced(e.correlated, correlated, nil, ctr))
				if got != want {
					t.Errorf("%s: correlated as %q answers\n%s\nwant\n%s", label, correlated, got, want)
				}
				matchViews(t, e.worlds(e.written), e.worlds(e.correlated))
				if n := attr(ctr, "subquery_evals"); n != "" && c.free == 0 {
					t.Errorf("%s: the correlated form %q evaluated %s subqueries once per input", label, correlated, n)
				}
				if attr(wtr, "subquery_evals") != "" {
					evals[e.name]++
				}
			}
		}
	}
	if ran < 10 {
		t.Errorf("%d statements correlated, want the corpora's subquery-bearing ones", ran)
	}
	for _, engine := range []string{"naive", "compact"} {
		if evals[engine] == 0 {
			t.Errorf("no written statement shared a subquery on the %s engine", engine)
		}
	}
}
