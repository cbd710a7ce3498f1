package wsd

// The compact engine's half of core.Engine: Run executes one I-SQL statement
// against the decomposition and Predict explains it, as core.Session's do
// over explicit worlds; core's runner parses, frames EXPLAIN and installs
// the statement's interrupt hook and trace around both. Every SELECT
// compiles once (through the process-wide shared plan cache, keyed by
// statement text and the decomposition's schema fingerprint), the planner
// annotates the compiled tree with the components it touches, and route
// picks the cheapest sound strategy — a single evaluation for
// world-independent queries, the merge-free componentwise path for
// decomposable queries (certain-only plus one tagged delta, the
// decomposition untouched), or a bounded partial expansion merging exactly the involved
// components. The compact representation still cannot run every I-SQL
// statement; the supported subset and what each form costs:
//
//   - CREATE TABLE t (cols)                      — empty certain relation
//   - INSERT INTO t [(cols)] VALUES (…), (…)     — append certain tuples
//     (column lists are reordered, missing columns NULL-filled)
//   - IMPORT INTO t FROM 'file.csv' [NULLS AS CHOICE]
//     [REPAIR KEY (cols) [WEIGHT w]] (COPY t FROM '…' is a synonym)
//     — bulk CSV load compiling uncertainty at ingestion: the certain
//     rows become the certain part in one columnar batch, and every
//     NULL-bearing row (NULLS AS CHOICE) or key-conflicting row group
//     (REPAIR KEY) becomes one independent component whose alternatives
//     are zero-copy slices of the loaded batch — O(file) space however
//     many worlds the dirt encodes
//   - CREATE TABLE d AS <plain SQL source>
//     REPAIR BY KEY k [WEIGHT w] | CHOICE OF u [WEIGHT w]
//     — one split (split.go) for every source: a source fed by components
//     (repair of a repair, choice of a repair, a filtered or projected
//     view of either, …) nests each feeding alternative's conditional
//     key-group repairs as child components under that alternative
//     (Σ-alternatives work, zero merges unless two components contribute
//     candidates under a common key; a choice merges its feeders into one
//     first, none when fed by at most one). A certain source is the case
//     with no feeders: one top-level component per key group / one
//     component, O(tuples) space for exponentially many worlds.
//     `select * from t` splits t directly; any other plain-SQL source is
//     materialized transiently first (splitQuery).
//     Key/weight columns outside the select list resolve against the
//     source rows (`… select A, B from R repair by key A weight D` — the
//     naive engine's split-then-project semantics): they ride the
//     transient materialization and are stripped after the split
//   - CREATE TABLE d AS <plain SQL>              — componentwise (no
//     merge, linear size) when the compiled plan decomposes and keeps
//     certain rows in front; else a partial expansion of exactly the
//     involved components
//   - CREATE TABLE d AS SELECT [POSSIBLE|CERTAIN|CONF] <plain SQL core>
//     [GROUP WORLDS BY (q)] — the closed answer stored as a certain
//     relation; with grouping, stored factorized: one copy per world
//     group, shared by every alternative of the (possibly merged)
//     grouping component — no merge when a single component feeds q
//   - SELECT [POSSIBLE|CERTAIN] <plain SQL core> — merge-free
//     componentwise closure for decomposable plans (selections,
//     projections, joins against certain relations, unions,
//     subqueries/aggregates over certain data — over any number of
//     components); a bounded merge only when the plan genuinely
//     correlates ≥ 2 components (cross-component joins, aggregates or
//     predicate subqueries over several components). Components nested
//     under other components' alternatives (conditional splits) answer
//     through the conditional tree fold, weighting each alternative by
//     its parent path — still merge-free
//   - plain SELECT over uncertain relations    — answered as a
//     *conditional relation* when the compiled plan decomposes: the
//     world-independent rows first with an empty trailing cond column,
//     then each alternative's contribution annotated with its condition
//     ("c3=1,c7=0" — root first); plans that do not decompose are refused
//   - CREATE TABLE d AS SELECT … ASSERT cond   — the durable assert:
//     filters + renormalizes the world-set first, then materializes the
//     rest of the query on the surviving worlds (per-world evaluation
//     commutes with the world filter)
//   - SELECT <exprs>, CONF <plain SQL core>      — exact confidences, same
//     routing
//   - SELECT <exprs>, APPROX CONF <plain SQL core> — exact confidences via
//     the same routing while it fits; when the classic path's component
//     merge would exceed the expansion limit (where CONF fails), a
//     Monte-Carlo estimate over 1000 sampled worlds from seed 0
//     (deterministic)
//   - SELECT … GROUP WORLDS BY (q)               — groups from a
//     per-component frontier fold over q's answer fingerprints
//     (certain-only plus one tagged delta) when q's plan decomposes and
//     touches no component of the main query; a bounded residual merge of the
//     involved components only when the grouped query genuinely spans
//     components
//   - UPDATE t SET … [WHERE …] / DELETE FROM t [WHERE …] — certain
//     relations in place; uncertain relations by rewriting the certain
//     part and each alternative's contribution separately (no merge) when
//     the SET/WHERE expressions read no uncertain data, else by a bounded
//     merge of the involved components
//   - ASSERT <condition>                         — filter + renormalize
//     the merged component (statement form of Example 2.5): a statement of
//     the grammar (sqlparse.Assert) routed like every other, so it works
//     across lines, behind comments, in scripts and under EXPLAIN [ANALYZE]
//   - DROP TABLE [IF EXISTS] t                   — any relation: its certain
//     part and its contribution to every alternative go, every component
//     stays (as the naive DROP keeps every world)
//   - EXPLAIN [ANALYZE] <stmt>                   — framed by core's
//     runner; Predict writes the routing (single / conditional /
//     componentwise / merge / approx_mc / refused, with merge cardinality
//     against the expansion limit) and the compiled plan tree,
//     component-annotated per table scan, touching nothing
//
// Still rejected (use the naive backend): the rows of refusals below.

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/worldset"
)

var _ core.Engine = (*WSD)(nil)

// ErrUnsupported is the sentinel every refusal wraps: clients and embedders
// detect "this statement needs the naive backend" with errors.Is(err,
// ErrUnsupported) instead of matching message strings. It is re-exported as
// maybms.ErrCompactUnsupported.
var ErrUnsupported = errors.New("unsupported by the compact backend")

// refusal is one row of the table of statements the compact backend refuses.
type refusal struct {
	// name is the row's trace attribute (refusal=<name>).
	name string
	// text follows "unsupported by the compact backend: " in the error and
	// "route: refused" in EXPLAIN; a %s in it names the construct detect
	// found.
	text string
	// detect reports whether the row refuses a statement, before anything
	// runs, and names the construct. nil for the per-world row, which route
	// detects at run time (ErrPerWorld).
	detect func(sqlparse.Statement) (construct string, refused bool)
}

// refusals is the table of what the compact backend refuses; the first row
// is route's, the others are checked in order by decide.
var refusals = []refusal{
	// Aggregates or cross-component correlation in a plain SELECT; plans
	// that decompose answer as a conditional relation instead.
	{name: "per-world", text: ErrPerWorld.Error()},
	{name: "primary-key", text: "PRIMARY KEY declarations (use REPAIR BY KEY)",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			st, ok := stmt.(*sqlparse.CreateTable)
			return "", ok && len(st.PrimaryKey) > 0
		}},
	{name: "create-view", text: "CREATE VIEW (use CREATE TABLE AS)",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			_, ok := stmt.(*sqlparse.CreateView)
			return "", ok
		}},
	{name: "isql-in-select", text: "repair/choice/assert inside SELECT (use CREATE TABLE AS … or the ASSERT statement)",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			st, ok := stmt.(*sqlparse.SelectStmt)
			return "", ok && (st.Repair != nil || st.Choice != nil || st.Assert != nil)
		}},
	{name: "split-combined", text: "combining repair/choice with other I-SQL constructs",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			src := splitSource(stmt)
			return "", src != nil && src.HasISQL()
		}},
	// The split applies to the source rows (the naive engine splits the
	// FROM/WHERE rows and evaluates the rest per world): a row-wise
	// projection commutes with it, constructs that look across rows do not.
	{name: "split-source", text: "repair/choice over a source using %s (the split applies to the source rows; materialize the source first with CREATE TABLE AS)",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			src := splitSource(stmt)
			if src == nil {
				return "", false
			}
			if _, star := plainStarSource(src); star {
				return "", false
			}
			c := splitSourceBlocker(src)
			return c, c != ""
		}},
	{name: "isql-in-assert", text: "I-SQL constructs in assert conditions",
		detect: func(stmt sqlparse.Statement) (string, bool) {
			var cond sqlparse.Expr
			switch st := stmt.(type) {
			case *sqlparse.Assert:
				cond = st.Cond
			case *sqlparse.CreateTableAs:
				cond = st.Query.Assert
			}
			return "", cond != nil && sqlparse.HasISQLDeep(&sqlparse.SelectStmt{Where: cond, Limit: -1})
		}},
}

// refuse fails a statement on row r with text, the one error every refusal
// is. A row detected before anything runs counts as route=refused here
// (route noted its own); every refusal traces refusal=<row>.
func (d *WSD) refuse(r *refusal, text string) error {
	if r.detect != nil {
		d.noteRoute(routeRefused)
	}
	d.trace.Set("refusal", r.name)
	return fmt.Errorf("%w: %s", ErrUnsupported, text)
}

// shape is a statement taken apart once, by decide: execution and EXPLAIN
// both read it.
type shape struct {
	// refusal is the table row refusing the statement (nil: it runs), and
	// why its text with the construct named.
	refusal *refusal
	why     string
	// A SELECT or the query of a CREATE TABLE AS: the plain-SQL core, its
	// closure, the GROUP WORLDS BY subquery, and the ASSERT a CREATE TABLE AS
	// applies before the rest. Under a split clause, core is the split's
	// source query, and src names t when that is exactly `select * from t`.
	core   *sqlparse.SelectStmt
	cl     closure
	gw     *sqlparse.SelectStmt
	assert sqlparse.Expr
	repair *sqlparse.RepairClause
	choice *sqlparse.ChoiceClause
	src    string
}

// decide takes a statement apart: the refusal table first, then for the
// SELECT forms the split source, the ASSERT, the closure and the grouping
// subquery, with the errors a malformed statement gets.
func (d *WSD) decide(stmt sqlparse.Statement) (shape, error) {
	for i := range refusals {
		r := &refusals[i]
		if r.detect == nil {
			continue
		}
		if c, refused := r.detect(stmt); refused {
			why := r.text
			if c != "" {
				why = fmt.Sprintf(r.text, c)
			}
			return shape{refusal: r, why: why}, nil
		}
	}
	var q *sqlparse.SelectStmt
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		q = st
	case *sqlparse.CreateTableAs:
		if src := splitSource(st); src != nil {
			sh := shape{core: src, repair: st.Query.Repair, choice: st.Query.Choice}
			sh.src, _ = plainStarSource(src)
			return sh, nil
		}
		q = st.Query
	default:
		return shape{}, nil
	}
	sh := shape{assert: q.Assert}
	if q.Assert != nil {
		qc := *q
		qc.Assert = nil
		q = &qc
	}
	qcore, cl, err := stripClosure(q)
	if err != nil {
		return shape{}, err
	}
	if cl.isConf() && !d.Weighted {
		return shape{}, fmt.Errorf("conf requires a probabilistic session: %w", worldset.ErrNotWeighted)
	}
	if gw := q.GroupWorlds; gw != nil {
		if sqlparse.HasISQLDeep(gw) {
			return shape{}, errors.New("group worlds by subquery must be plain SQL")
		}
		if cl == closureNone {
			return shape{}, errors.New("group worlds by requires possible, certain or conf")
		}
		// stripClosure copied the statement, grouping clause included; the
		// core is the plain-SQL part alone.
		qcore.GroupWorlds = nil
		sh.gw = gw
	}
	sh.core, sh.cl = qcore, cl
	return sh, nil
}

// splitSource returns the source query of a CREATE TABLE AS … REPAIR BY KEY
// or CHOICE OF — its query without the split clause — and nil for every
// other statement.
func splitSource(stmt sqlparse.Statement) *sqlparse.SelectStmt {
	st, ok := stmt.(*sqlparse.CreateTableAs)
	if !ok || (st.Query.Repair == nil && st.Query.Choice == nil) {
		return nil
	}
	src := *st.Query
	src.Repair, src.Choice = nil, nil
	return &src
}

// plainStarSource reports whether a split source is exactly `select * from
// t` — the fast path splitting t directly, with no transient
// materialization (any other source goes through splitQuery).
func plainStarSource(q *sqlparse.SelectStmt) (string, bool) {
	star := len(q.Items) == 1 && q.Items[0].Alias == ""
	if star {
		s, ok := q.Items[0].Expr.(sqlparse.Star)
		star = ok && s.Qualifier == ""
	}
	if !star || len(q.From) != 1 || q.From[0].Alias != "" || q.Where != nil ||
		len(q.GroupBy) > 0 || q.Having != nil || len(q.OrderBy) > 0 || q.Limit >= 0 || q.Union != nil {
		return "", false
	}
	return q.From[0].Name, true
}

// Exec parses and runs one statement through core's runner.
func (d *WSD) Exec(sql string) (*core.Result, error) { return core.Exec(d, sql) }

// Run executes one statement other than EXPLAIN against the decomposition.
func (d *WSD) Run(stmt sqlparse.Statement) (*core.Result, error) {
	sh, err := d.decide(stmt)
	if err != nil {
		return nil, err
	}
	if sh.refusal != nil {
		return nil, d.refuse(sh.refusal, sh.why)
	}
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		if err := d.PutCertain(st.Name, relation.New(schema.New(st.Columns...))); err != nil {
			return nil, err
		}
		return d.ok("created table %s", st.Name)
	case *sqlparse.Insert:
		rows, err := d.insertRows(st)
		if err == nil {
			err = d.insertCertain(st.Table, rows)
		}
		if err != nil {
			return nil, err
		}
		return d.ok("inserted %d row(s) into %s", len(rows), st.Table)
	case *sqlparse.Drop:
		if err := d.drop(st.Name); err != nil && !(st.IfExists && errors.Is(err, ErrUnknown)) {
			return nil, err
		}
		return d.ok("dropped %s", st.Name)
	case *sqlparse.CreateTableAs:
		return d.execCreateAs(st.Name, sh)
	case *sqlparse.SelectStmt:
		return d.execSelect(st, sh)
	case *sqlparse.Update:
		n, err := d.applyDML(st, st.Table)
		if err != nil {
			return nil, err
		}
		return d.ok("updated %d representation row(s) in %s across %s world(s)", n, st.Table, d.WorldCount())
	case *sqlparse.Delete:
		n, err := d.applyDML(st, st.Table)
		if err != nil {
			return nil, err
		}
		return d.ok("deleted %d representation row(s) from %s across %s world(s)", n, st.Table, d.WorldCount())
	case *sqlparse.Import:
		return d.execImport(st)
	case *sqlparse.Assert:
		// The compact counterpart of the paper's assert clause, which the
		// naive engine runs inside SELECT and makes durable via CREATE TABLE
		// AS.
		if err := d.assertStmt(st.Cond); err != nil {
			return nil, err
		}
		return d.ok("asserted; %s world(s) remain", d.WorldCount())
	}
	return nil, fmt.Errorf("unsupported statement %s", stmt)
}

func (d *WSD) ok(format string, args ...any) (*core.Result, error) {
	return &core.Result{Kind: core.ResultOK, Msg: fmt.Sprintf(format, args...), Weighted: d.Weighted}, nil
}

// execImport bulk-loads a CSV file through the shared import classifier
// and registers the plan on the decomposition: certain rows in one batch,
// one component per uncertainty group. Both engines consume the identical
// relation.ImportPlan, so their world-sets agree by construction.
func (d *WSD) execImport(st *sqlparse.Import) (*core.Result, error) {
	p, err := core.LoadImport(st, d.Weighted)
	if err != nil {
		return nil, err
	}
	if err := d.Import(st.Table, p); err != nil {
		return nil, err
	}
	return d.ok("imported %s: %d certain row(s), %d uncertainty group(s); %s world(s)",
		st.Table, p.Certain.Len(), len(p.Groups), d.WorldCount())
}

// insertRows builds an INSERT's constant rows against the target's schema
// (shared with the naive engine via plan.ConstInsertRows): the check
// EXPLAIN runs too.
func (d *WSD) insertRows(st *sqlparse.Insert) ([]tuple.Tuple, error) {
	sch, err := d.Schema(st.Table)
	if err != nil {
		return nil, err
	}
	return plan.ConstInsertRows(st, sch)
}

// execCreateAs materializes a query: a split becomes decomposition
// components (splitting the feeding components in place when its source is
// uncertain); closed and grouped queries store their factorized answers;
// plain SQL is stored componentwise when the compiled plan decomposes and by
// bounded partial expansion otherwise. An ASSERT filters and renormalizes the
// world-set first — per-world evaluation commutes with the world filter, so
// this is exactly the naive engine's durable assert.
func (d *WSD) execCreateAs(name string, sh shape) (*core.Result, error) {
	if sh.repair != nil || sh.choice != nil {
		return d.execSplit(name, sh)
	}
	if sh.assert != nil {
		if err := d.assertStmt(sh.assert); err != nil {
			return nil, err
		}
	}
	var err error
	if sh.gw == nil && sh.cl == closureNone {
		err = d.createTableAs(name, sh.core)
	} else {
		err = d.createTableAsClosure(name, sh.core, sh.cl, sh.gw)
	}
	if err != nil {
		return nil, err
	}
	return d.ok("created table %s", name)
}

// execSplit runs CREATE TABLE AS … REPAIR BY KEY / CHOICE OF: over `select *
// from t` it splits t directly; any other source is materialized
// transiently, split, and dropped — the components carry the new relation
// alone.
func (d *WSD) execSplit(name string, sh shape) (*core.Result, error) {
	split, what, source := d.repairByKey, "repair of", sh.src
	var cols []string
	var weight string
	if sh.repair != nil {
		cols, weight = sh.repair.Key, sh.repair.Weight
	} else {
		split, what, cols, weight = d.choiceOf, "choice over", sh.choice.Attrs, sh.choice.Weight
	}
	var err error
	if source != "" {
		err = split(source, name, cols, weight)
	} else {
		source = "a query source"
		err = d.splitQuery(sh.core, name, cols, weight, split)
	}
	if err != nil {
		return nil, err
	}
	return d.ok("created table %s: %s %s (%s worlds)", name, what, source, d.WorldCount())
}

// execSelect answers a SELECT through the analyzed-plan executor: POSSIBLE /
// CERTAIN / CONF close over per-alternative answers — with no component
// merge whenever the compiled plan decomposes — and plain SQL is one world's
// answer or a conditional relation. GROUP WORLDS BY groups worlds by the
// fingerprint of the subquery's answer and closes within each group; group
// membership is not enumerated (it can span astronomically many worlds), so
// Groups carries probabilities and closed answers only.
func (d *WSD) execSelect(st *sqlparse.SelectStmt, sh shape) (*core.Result, error) {
	if sh.gw != nil {
		groups, err := d.groupWorldsClosure(sh.gw, sh.core, sh.cl)
		if err != nil {
			return nil, err
		}
		return &core.Result{Kind: core.ResultClosed, Groups: groups, Weighted: d.Weighted}, nil
	}
	rel, err := d.selectClosure(sh.core, sh.cl)
	if errors.Is(err, ErrPerWorld) {
		return nil, d.refuse(&refusals[0], err.Error())
	}
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Kind:     core.ResultClosed,
		Groups:   []core.GroupRows{{Prob: 1, Rel: rel}},
		Weighted: d.Weighted,
		Ordered:  sh.cl == closureNone && st.OrdersAnswer(),
	}, nil
}

// Predict writes EXPLAIN's prediction for one statement, read off the
// statement's shape: a table refusal as route's refusals print; the routing
// of a SELECT form from route itself; the target relation's components for
// DML, after the DML template or the INSERT rows build as they do in Run;
// one plan line for the rest.
func (d *WSD) Predict(b *strings.Builder, stmt sqlparse.Statement) error {
	sh, err := d.decide(stmt)
	if err != nil {
		return err
	}
	if sh.refusal != nil {
		fmt.Fprintf(b, "route: refused (%s)\n", sh.why)
		return nil
	}
	target := func(table string) string {
		if comps := d.componentsFor(table); len(comps) > 0 {
			return fmt.Sprintf("components %v", comps)
		}
		return "certain"
	}
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return d.explainQuery(b, sh)
	case *sqlparse.CreateTableAs:
		switch {
		case sh.repair != nil:
			fmt.Fprintf(b, "plan:\n  RepairByKey (%s) -> %s\n", strings.Join(sh.repair.Key, ", "), st.Name)
		case sh.choice != nil:
			fmt.Fprintf(b, "plan:\n  ChoiceOf (%s) -> %s\n", strings.Join(sh.choice.Attrs, ", "), st.Name)
		default:
			fmt.Fprintf(b, "materialize: table %s\n", st.Name)
			return d.explainQuery(b, sh)
		}
	case *sqlparse.Update:
		if _, err := d.dmlTemplate(st, st.Table); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Update %s [%s]\n", st.Table, target(st.Table))
	case *sqlparse.Delete:
		if _, err := d.dmlTemplate(st, st.Table); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Delete %s [%s]\n", st.Table, target(st.Table))
	case *sqlparse.Insert:
		if _, err := d.insertRows(st); err != nil {
			return err
		}
		fmt.Fprintf(b, "plan:\n  Insert %s (%d rows, certain part)\n", st.Table, len(st.Rows))
	default:
		fmt.Fprintf(b, "plan:\n  %s\n", stmt)
	}
	return nil
}
