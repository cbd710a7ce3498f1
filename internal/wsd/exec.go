package wsd

// The compact engine's half of core.Engine: Run executes one I-SQL statement
// against the decomposition and Predict explains it, as core.Session's do
// over explicit worlds; core's runner parses, frames EXPLAIN and installs
// the statement's interrupt hook and trace around both. decide takes a
// statement apart: a SELECT form through core.TakeApart, the I-SQL front end
// both engines share, so a malformed statement fails here with the naive
// engine's error; then the refusal table, which only a well-formed statement
// reaches. route (route.go) decides the statement — once, the decision Run
// notes and Predict prints — and the run it returns carries it out. Every
// query compiles once, through the process-wide shared plan cache keyed by
// statement text, where a template stays valid while the tables it read keep
// their columns. The supported subset, and the routes each form takes:
//
//   - CREATE TABLE t (cols), DROP TABLE [IF EXISTS] t, IMPORT INTO t FROM
//     'file.csv' [NULLS AS CHOICE] [REPAIR KEY (cols) [WEIGHT w]] — single.
//     DROP keeps every component, as the naive DROP keeps every world;
//     IMPORT compiles the file's uncertainty into one component per dirty
//     row group, zero-copy slices of the loaded batch
//   - INSERT INTO t [(cols)] VALUES … — single: appended to a certain
//     relation (column lists reordered, missing columns NULL-filled);
//     refused when a component contributes to t
//   - SELECT [POSSIBLE|CERTAIN] …, SELECT …, [APPROX] CONF … — single when
//     world-independent; componentwise (certain-only answer plus one tagged
//     delta, the decomposition untouched) when the compiled plan decomposes,
//     conditional over d-trees; convolution (the same two evaluations of a
//     scalar SUM or COUNT's input, folded component by component, the
//     decomposition untouched) for POSSIBLE, CERTAIN or CONF of such an
//     aggregate, or CONF of a constant compared with one, over flat
//     components; merge (a bounded partial expansion of
//     exactly the involved components) when it genuinely correlates
//     components; approx_mc (1000 worlds sampled from seed 0) for APPROX
//     CONF past the expansion limit. A plain SELECT over uncertain
//     relations answers as a conditional relation (a trailing cond column,
//     "c3=1,c7=0", root first) when its plan decomposes, and is refused
//     otherwise
//   - SELECT … GROUP WORLDS BY (q) — componentwise: groups from a frontier
//     fold over per-component fingerprints of q's answer, when q decomposes
//     and shares no component with the main query; else merge of the
//     involved components
//   - CREATE TABLE d AS <query> — the query's answer stored: plain SQL
//     componentwise when the plan keeps certain rows in front, else by
//     merge; a closed query as a certain relation; a grouped one
//     factorized, one copy per world group. An ASSERT in it filters and
//     renormalizes the world-set first, and the store is decided on the
//     world-set it leaves
//   - CREATE TABLE d AS <source> REPAIR BY KEY k [WEIGHT w] | CHOICE OF u
//     [WEIGHT w] — one split (split.go): single over certain data,
//     conditional when it nests under the components feeding the source,
//     merge when it must merge feeders first. `select * from t` splits t;
//     any other row-wise source is stored transiently first, its key and
//     weight columns carried through the projection
//   - UPDATE / DELETE — single over a certain table; componentwise, the
//     certain part and each alternative's contribution rewritten apart,
//     when the SET/WHERE expressions read no uncertain data; else merge
//   - ASSERT <condition> — merge: filter and renormalize the merged
//     component of the relations it reads (Example 2.5)
//   - EXPLAIN [ANALYZE] <stmt> — framed by core's runner: Predict prints the
//     route line (single / componentwise / conditional / convolution / merge
//     / approx_mc / refused, with the counts behind it) for every statement,
//     then the
//     compiled plan tree, component-annotated per table scan, changing
//     nothing (a split's route reads the keys of its source)
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
	"maybms/internal/world"
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
	// runs, and names the construct; q is the statement's SELECT taken apart
	// by the front end (the zero value for other statements). nil for the
	// rows route detects.
	detect func(stmt sqlparse.Statement, q *core.ISQL) (construct string, refused bool)
}

// refusals is the table of what the compact backend refuses; the first two
// rows are route's, the others are checked in order by decide.
var refusals = []refusal{
	// Aggregates or cross-component correlation in a plain SELECT; plans
	// that decompose answer as a conditional relation instead.
	{name: "per-world", text: ErrPerWorld.Error()},
	// INSERT appends to the certain part, and a relation some component
	// contributes to has more than that in some world.
	{name: "insert-uncertain", text: ErrNotCertain.Error()},
	{name: "primary-key", text: "PRIMARY KEY declarations (use REPAIR BY KEY)",
		detect: func(stmt sqlparse.Statement, _ *core.ISQL) (string, bool) {
			st, ok := stmt.(*sqlparse.CreateTable)
			return "", ok && len(st.PrimaryKey) > 0
		}},
	{name: "create-view", text: "CREATE VIEW (use CREATE TABLE AS)",
		detect: func(stmt sqlparse.Statement, _ *core.ISQL) (string, bool) {
			_, ok := stmt.(*sqlparse.CreateView)
			return "", ok
		}},
	{name: "isql-in-select", text: "repair/choice/assert inside SELECT (use CREATE TABLE AS … or the ASSERT statement)",
		detect: func(stmt sqlparse.Statement, q *core.ISQL) (string, bool) {
			_, ok := stmt.(*sqlparse.SelectStmt)
			return "", ok && (q.Splits() || q.Assert != nil)
		}},
	// From here on a split is a CREATE TABLE AS's.
	{name: "split-combined", text: "combining repair/choice with other I-SQL constructs",
		detect: func(_ sqlparse.Statement, q *core.ISQL) (string, bool) {
			return "", q.Splits() && (q.Closure != core.ClosureNone || q.Assert != nil || q.GroupWorlds != nil)
		}},
	// The split applies to the source rows (the naive engine splits the
	// FROM/WHERE rows and evaluates the rest per world): a row-wise
	// projection commutes with it, constructs that look across rows do not.
	{name: "split-source", text: "repair/choice over a source using %s (the split applies to the source rows; materialize the source first with CREATE TABLE AS)",
		detect: func(_ sqlparse.Statement, q *core.ISQL) (string, bool) {
			if !q.Splits() {
				return "", false
			}
			if _, star := plainStarSource(q.Core); star {
				return "", false
			}
			c := splitSourceBlocker(q.Core)
			return c, c != ""
		}},
	{name: "isql-in-assert", text: "I-SQL constructs in assert conditions",
		detect: func(stmt sqlparse.Statement, q *core.ISQL) (string, bool) {
			cond := q.Assert
			if st, ok := stmt.(*sqlparse.Assert); ok {
				cond = st.Cond
			}
			return "", cond != nil && sqlparse.HasISQLDeep(&sqlparse.SelectStmt{Where: cond, Limit: -1})
		}},
}

// shape is a statement taken apart once, by decide: execution and EXPLAIN
// both read it.
type shape struct {
	// refusal is the table row refusing the statement (nil: it runs), and
	// why its text with the construct named.
	refusal *refusal
	why     string
	// ISQL is a SELECT or the query of a CREATE TABLE AS taken apart by the
	// front end; the ASSERT of a CREATE TABLE AS filters the world-set before
	// the rest runs. Under a split clause, Core is the split's source query,
	// and src names t when that is exactly `select * from t`.
	core.ISQL
	src string
}

// decide takes a statement apart: the I-SQL front end first, with the
// errors a malformed statement gets on either engine, then the refusal
// table, which only a well-formed statement reaches.
func (d *WSD) decide(stmt sqlparse.Statement) (shape, error) {
	var sh shape
	var sel *sqlparse.SelectStmt
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		sel = st
	case *sqlparse.CreateTableAs:
		sel = st.Query
	case *sqlparse.CreateView:
		sel = st.Query
	}
	if sel != nil {
		var err error
		if sh.ISQL, err = core.TakeApart(sel, d.Weighted); err != nil {
			return shape{}, err
		}
	}
	for i := range refusals {
		r := &refusals[i]
		if r.detect == nil {
			continue
		}
		if c, refused := r.detect(stmt, &sh.ISQL); refused {
			why := r.text
			if c != "" {
				why = fmt.Sprintf(r.text, c)
			}
			return shape{refusal: r, why: why}, nil
		}
	}
	if sh.Splits() {
		sh.src, _ = plainStarSource(sh.Core)
	}
	return sh, nil
}

// plainStarSource reports whether a split source is exactly `select * from
// t` — the fast path splitting t directly, with no transient
// materialization (any other source is stored transiently; see routeSplit).
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

// Run executes one statement other than EXPLAIN against the decomposition:
// it notes the statement's route decision and runs it.
func (d *WSD) Run(stmt sqlparse.Statement) (*core.Result, error) {
	sh, err := d.decide(stmt)
	if err != nil {
		return nil, err
	}
	dec, run, err := d.route(stmt, sh)
	if err != nil {
		return nil, err
	}
	if dec.then != nil && dec.kind != routeRefused {
		dec, run = dec.then()
	}
	d.noteRoute(dec)
	if dec.kind == routeRefused {
		return nil, dec.err
	}
	return run()
}

func (d *WSD) ok(format string, args ...any) (*core.Result, error) {
	return &core.Result{Kind: core.ResultOK, Msg: fmt.Sprintf(format, args...), Weighted: d.Weighted}, nil
}

// runOther runs the statements that involve no component: DDL, DROP and
// IMPORT.
func (d *WSD) runOther(stmt sqlparse.Statement) (*core.Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		if err := d.PutCertain(st.Name, relation.New(schema.New(st.Columns...))); err != nil {
			return nil, err
		}
		return d.ok("created table %s", st.Name)
	case *sqlparse.Drop:
		if err := d.drop(st.Name); err != nil && !(st.IfExists && errors.Is(err, world.ErrUnknown)) {
			return nil, err
		}
		return d.ok("dropped %s", st.Name)
	case *sqlparse.Import:
		return d.execImport(st)
	}
	return nil, fmt.Errorf("unsupported statement %s", stmt)
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

// routeInsert decides an INSERT: its constant rows are built against the
// target's schema (shared with the naive engine via plan.ConstInsertRows)
// and appended to the certain part, which is all of the relation in every
// world only when no component contributes to it — else the insert is
// refused.
func (d *WSD) routeInsert(st *sqlparse.Insert) (decision, func() (*core.Result, error), error) {
	sch, err := d.Schema(st.Table)
	if err != nil {
		return decision{}, nil, err
	}
	rows, err := plan.ConstInsertRows(st, sch)
	if err != nil {
		return decision{}, nil, err
	}
	if _, _, err := d.certainRelation(st.Table); err != nil {
		return refused(&refusals[1], err), nil, nil
	}
	return decision{kind: routeSingle}, func() (*core.Result, error) {
		if err := d.insertCertain(st.Table, rows); err != nil {
			return nil, err
		}
		return d.ok("inserted %d row(s) into %s", len(rows), st.Table)
	}, nil
}

// routeSelect decides a SELECT: a closure, a plain answer (one world's or a
// conditional relation), or GROUP WORLDS BY, whose groups carry
// probabilities and closed answers but no world names (a group can span
// astronomically many worlds).
func (d *WSD) routeSelect(st *sqlparse.SelectStmt, sh shape) (decision, func() (*core.Result, error), error) {
	closed := func(groups []core.GroupRows, err error) (*core.Result, error) {
		if err != nil {
			return nil, err
		}
		return &core.Result{Kind: core.ResultClosed, Groups: groups, Weighted: d.Weighted,
			Ordered: sh.Closure == core.ClosureNone && st.OrdersAnswer()}, nil
	}
	if sh.GroupWorlds != nil {
		dec, grouped, err := d.routeGrouped(sh.GroupWorlds, sh.Core, sh.Closure, "")
		return dec, func() (*core.Result, error) { return closed(grouped()) }, err
	}
	dec, answer, err := d.routeQuery(sh.Core, sh.Closure, "")
	return dec, func() (*core.Result, error) {
		rel, err := answer()
		return closed([]core.GroupRows{{Prob: 1, Rel: rel}}, err)
	}, err
}

// routeCreateAs decides CREATE TABLE AS: a split (routeSplit), a closed
// query stored as the certain relation of its closure, a grouped one
// factorized (routeGrouped), plain SQL stored by routeQuery. An ASSERT
// filters and renormalizes the world-set first, which commutes with
// per-world evaluation; the store is then decided on the world-set the
// assert leaves (decision.then), and forecast until then on the
// decomposition as it stands, where a merge past MergeLimit may yet fit.
func (d *WSD) routeCreateAs(name string, sh shape) (decision, func() (*core.Result, error), error) {
	if sh.Splits() {
		return d.routeSplit(name, sh)
	}
	if _, ok := d.schemas[key(name)]; ok {
		return decision{}, nil, fmt.Errorf("%w: %s", core.ErrExists, name)
	}
	created := func(_ any, err error) (*core.Result, error) {
		if err != nil {
			return nil, err
		}
		return d.ok("created table %s", name)
	}
	store := func() (decision, func() (*core.Result, error), error) {
		if sh.GroupWorlds != nil {
			dec, grouped, err := d.routeGrouped(sh.GroupWorlds, sh.Core, sh.Closure, name)
			return dec, func() (*core.Result, error) { return created(grouped()) }, err
		}
		dec, stored, err := d.routeQuery(sh.Core, sh.Closure, name)
		return dec, func() (*core.Result, error) { return created(stored()) }, err
	}
	dec, run, err := store()
	if err != nil || sh.Assert == nil {
		return dec, run, err
	}
	adec, assert, err := d.routeAssert(sh.Assert)
	if err != nil {
		return decision{}, nil, err
	}
	if dec.kind == routeApproxMC || dec.kind == routeRefused {
		dec = decision{kind: routeMerge, comps: dec.comps}
		dec.alts, _ = d.mergedAlternatives(dec.comps)
	}
	dec = costlier(adec, dec)
	dec.then = func() (decision, func() (*core.Result, error)) {
		var sdec decision
		var run func() (*core.Result, error)
		err := assert()
		if err == nil {
			sdec, run, err = store()
		}
		if err != nil {
			return adec, func() (*core.Result, error) { return nil, err }
		}
		return costlier(adec, sdec), run
	}
	return dec, nil, nil
}

// Predict writes EXPLAIN's prediction for one statement: the route decision
// Run would note, rendered, after the phases a CREATE TABLE AS runs first;
// then the compiled plan of a SELECT form, the split or DML target, or one
// plan line for the rest. A table refusal prints its route line alone.
func (d *WSD) Predict(b *strings.Builder, stmt sqlparse.Statement) error {
	sh, err := d.decide(stmt)
	if err != nil {
		return err
	}
	dec, _, err := d.route(stmt, sh)
	if err != nil {
		return err
	}
	if sh.refusal != nil {
		fmt.Fprintf(b, "route: %s\n", d.describeRoute(dec))
		return nil
	}
	if st, ok := stmt.(*sqlparse.CreateTableAs); ok && !sh.Splits() {
		fmt.Fprintf(b, "materialize: table %s\n", st.Name)
	}
	if sh.Assert != nil {
		fmt.Fprintf(b, "assert: %s\n", sh.Assert)
	}
	if sh.GroupWorlds != nil {
		b.WriteString("group worlds by: yes\n")
	}
	fmt.Fprintf(b, "route: %s\n", d.describeRoute(dec))
	target := func(table string) string {
		if comps := d.componentsFor(table); len(comps) > 0 {
			return fmt.Sprintf("components %v", comps)
		}
		return "certain"
	}
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return d.explainPlan(b, sh)
	case *sqlparse.CreateTableAs:
		switch {
		case sh.Repair != nil:
			fmt.Fprintf(b, "plan:\n  RepairByKey (%s) -> %s\n", strings.Join(sh.Repair.Key, ", "), st.Name)
		case sh.Choice != nil:
			fmt.Fprintf(b, "plan:\n  ChoiceOf (%s) -> %s\n", strings.Join(sh.Choice.Attrs, ", "), st.Name)
		default:
			return d.explainPlan(b, sh)
		}
	case *sqlparse.Update:
		fmt.Fprintf(b, "plan:\n  Update %s [%s]\n", st.Table, target(st.Table))
	case *sqlparse.Delete:
		fmt.Fprintf(b, "plan:\n  Delete %s [%s]\n", st.Table, target(st.Table))
	case *sqlparse.Insert:
		if dec.kind != routeRefused {
			fmt.Fprintf(b, "plan:\n  Insert %s (%d rows, certain part)\n", st.Table, len(st.Rows))
		}
	default:
		fmt.Fprintf(b, "plan:\n  %s\n", stmt)
	}
	return nil
}
