package server

import (
	"errors"
	"fmt"
	"strings"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/worldset"
	"maybms/internal/wsd"
)

// ErrUnsupported is the sentinel every "this statement needs the naive
// backend" refusal wraps: clients and embedders detect compact-backend
// refusals with errors.Is(err, ErrUnsupported) instead of matching
// message strings. It is re-exported as maybms.ErrCompactUnsupported.
var ErrUnsupported = errors.New("unsupported by the compact backend")

// errCompactUnsupported is the package-internal alias the refusal sites
// wrap.
var errCompactUnsupported = ErrUnsupported

// compactBackend serves I-SQL over a world-set decomposition. Statements
// route through internal/wsd's compiled-and-analyzed plan executor: every
// SELECT compiles once (through the process-wide shared plan cache, keyed
// by statement text and the decomposition's schema fingerprint), the
// planner annotates the compiled tree with the components it touches, and
// the engine picks the cheapest sound strategy — a single evaluation for
// world-independent queries, the merge-free componentwise path for
// decomposable queries (Σ alternatives evaluations, the decomposition
// untouched), or a bounded partial expansion merging exactly the involved
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
//     — for a certain source: one component per key group / one
//     component, O(tuples) space for exponentially many worlds. An
//     uncertain source (repair of a repair, choice of a repair, a
//     filtered or projected view of either, …) nests each feeding
//     alternative's conditional key-group repairs as child components
//     under that alternative (Σ-alternatives work, zero merges unless two
//     components contribute candidates under a common key; a choice
//     merges its feeders into one first, none when fed by at most one).
//     `select * from t` splits t directly; any other plain-SQL source is
//     materialized transiently first (RepairByKeyQuery/ChoiceOfQuery).
//     Key/weight columns outside the select list resolve against the
//     source rows (`… select A, B from R repair by key A weight D` — the
//     naive engine's split-then-project semantics): they ride the
//     transient materialization and are stripped after the split. Sources
//     that look across rows (DISTINCT, GROUP BY, aggregates, UNION,
//     ORDER BY/LIMIT) do not commute with the split and are refused
//     naming the construct
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
//     ("c3=1,c7=0" — root first). Plans that do not decompose are
//     refused (wsd.ErrPerWorld: "per-world answers over uncertain
//     relations (close with possible, certain or conf)", naming the
//     uncertain relations read)
//   - CREATE TABLE d AS SELECT … ASSERT cond   — the durable assert:
//     filters + renormalizes the world-set first, then materializes the
//     rest of the query on the surviving worlds (per-world evaluation
//     commutes with the world filter)
//   - SELECT <exprs>, CONF <plain SQL core>      — exact confidences, same
//     routing
//   - SELECT <exprs>, APPROX CONF <plain SQL core> — exact confidences via
//     the same routing while it fits; when the classic path's component
//     merge would exceed the expansion limit (where CONF fails), a seeded
//     Monte-Carlo estimate over sampled worlds (wsd.ApproxSamples /
//     wsd.ApproxSeed; deterministic for a fixed pair)
//   - SELECT … GROUP WORLDS BY (q)               — groups from a
//     per-component frontier fold over q's answer fingerprints
//     (Σ alternatives evaluations) when q's plan decomposes and touches
//     no component of the main query; a bounded residual merge of the
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
//   - DROP TABLE [IF EXISTS] t                   — certain relations only
//   - EXPLAIN <stmt>                             — routing prediction
//     (single / conditional / componentwise / merge / approx_mc /
//     refused, with merge cardinality against the expansion limit) plus
//     the compiled plan tree, component-annotated per table scan;
//     predicts without executing, merging, or touching the decomposition
//   - EXPLAIN ANALYZE <stmt>                     — the same, then executes
//     the statement for real (DML side effects included, as in
//     PostgreSQL) with a statement trace installed and appends the actual
//     spans, timings and cardinalities
//
// Still rejected (use the naive backend):
//
//   - per-world answers over uncertain relations (close with possible,
//     certain or conf) whose plan does not decompose — aggregates or
//     cross-component correlation; decomposable plans answer as a
//     conditional relation, see above
//   - PRIMARY KEY declarations (use REPAIR BY KEY)
//   - combining repair/choice with other I-SQL constructs
//   - repair/choice over a source using DISTINCT, GROUP BY, aggregates,
//     UNION or ORDER BY/LIMIT (the split applies to the source rows;
//     materialize the source first with CREATE TABLE AS)
//   - repair/choice/assert inside SELECT (use CREATE TABLE AS … or the
//     ASSERT statement)
//   - I-SQL constructs in assert conditions
//
// scripts/lint_compact_errors.sh keeps this list in sync with the
// errCompactUnsupported messages below.
type compactBackend struct {
	d        *wsd.WSD
	weighted bool
}

func newCompactBackend(weighted bool, workers, mergeLimit int) *compactBackend {
	d := wsd.New(weighted)
	d.Workers = workers
	if mergeLimit > 0 {
		d.MergeLimit = mergeLimit
	}
	return &compactBackend{d: d, weighted: weighted}
}

func (b *compactBackend) setInterrupt(f func() error) { b.d.Interrupt = f }
func (b *compactBackend) setTrace(t *obs.Trace)       { b.d.Trace = t }
func (b *compactBackend) planCache() (uint64, uint64) { return b.d.PlanCacheCounts() }
func (b *compactBackend) kind() string                { return "compact" }
func (b *compactBackend) worlds() string              { return b.d.WorldCount().String() }

func (b *compactBackend) counters() *CompactCounters {
	return &CompactCounters{
		Merges:        b.d.MergeCount(),
		Componentwise: b.d.ComponentwiseCount(),
		Conditional:   b.d.ConditionalCount(),
	}
}

// ExecCompact runs one parsed I-SQL statement against the decomposition d
// with the compact backend's full statement routing — the same code path the
// server's compact sessions use. It backs CompactDB's Exec and typed methods
// and the maybms shell's -compact mode.
func ExecCompact(d *wsd.WSD, stmt sqlparse.Statement) (*core.Result, error) {
	return (&compactBackend{d: d, weighted: d.Weighted}).execParsed(stmt)
}

func (b *compactBackend) ok(format string, args ...any) (*core.Result, error) {
	return &core.Result{Kind: core.ResultOK, Msg: fmt.Sprintf(format, args...), Weighted: b.weighted}, nil
}

func (b *compactBackend) exec(sql string) (*core.Result, error) {
	sp := b.d.Trace.Begin("parse")
	stmt, err := sqlparse.Parse(sql)
	sp.End(b.d.Trace)
	if err != nil {
		return nil, err
	}
	return b.execParsed(stmt)
}

// execParsed routes one parsed statement. Split from exec so EXPLAIN
// ANALYZE can run its inner statement through the identical routing.
func (b *compactBackend) execParsed(stmt sqlparse.Statement) (*core.Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		if len(st.PrimaryKey) > 0 {
			return nil, fmt.Errorf("%w: PRIMARY KEY declarations (use REPAIR BY KEY)", errCompactUnsupported)
		}
		if err := b.d.PutCertain(st.Name, relation.New(schema.New(st.Columns...))); err != nil {
			return nil, err
		}
		return b.ok("created table %s", st.Name)
	case *sqlparse.Insert:
		return b.execInsert(st)
	case *sqlparse.Drop:
		if err := b.d.DropCertain(st.Name); err != nil {
			if st.IfExists && errors.Is(err, wsd.ErrUnknown) {
				return b.ok("dropped %s", st.Name)
			}
			return nil, err
		}
		return b.ok("dropped %s", st.Name)
	case *sqlparse.CreateTableAs:
		return b.execCreateAs(st)
	case *sqlparse.SelectStmt:
		return b.execSelect(st)
	case *sqlparse.Update:
		n, err := b.d.Update(st)
		if err != nil {
			return nil, err
		}
		return b.ok("updated %d representation row(s) in %s across %s world(s)", n, st.Table, b.d.WorldCount())
	case *sqlparse.Delete:
		n, err := b.d.Delete(st)
		if err != nil {
			return nil, err
		}
		return b.ok("deleted %d representation row(s) from %s across %s world(s)", n, st.Table, b.d.WorldCount())
	case *sqlparse.Explain:
		return b.execExplain(st)
	case *sqlparse.Import:
		return b.execImport(st)
	case *sqlparse.Assert:
		return b.execAssert(st)
	default:
		return nil, fmt.Errorf("%w: %T statements", errCompactUnsupported, stmt)
	}
}

// execExplain renders the routing prediction and compiled plan for the
// inner statement; under ANALYZE it then executes the statement for real
// (through the same execParsed routing, DML side effects included) with a
// statement trace installed and appends the actual spans.
func (b *compactBackend) execExplain(st *sqlparse.Explain) (*core.Result, error) {
	var bld strings.Builder
	bld.WriteString("engine: compact (world-set decomposition)\n")
	fmt.Fprintf(&bld, "worlds: %s\n", b.d.WorldCount())
	if err := b.explainPlan(&bld, st.Stmt); err != nil {
		return nil, err
	}
	if st.Analyze {
		tr := obs.NewTrace(st.Stmt.String())
		prev := b.d.Trace
		b.d.Trace = tr
		res, err := b.execParsed(st.Stmt)
		b.d.Trace = prev
		if err != nil {
			return nil, err
		}
		bld.WriteString("\nactual:\n")
		for _, line := range strings.Split(strings.TrimRight(tr.Render(), "\n"), "\n") {
			bld.WriteString("  " + line + "\n")
		}
		if res.Kind == core.ResultClosed {
			n := 0
			for _, g := range res.Groups {
				n += g.Rel.Len()
			}
			fmt.Fprintf(&bld, "  result rows: %d\n", n)
		}
	}
	return &core.Result{Kind: core.ResultOK, Msg: strings.TrimRight(bld.String(), "\n"), Weighted: b.weighted}, nil
}

// explainPlan writes the prediction section for one statement. SELECTs get
// the full routing prediction from the decomposition; DML names the target
// relation's components; DDL renders a one-line plan.
func (b *compactBackend) explainPlan(bld *strings.Builder, stmt sqlparse.Statement) error {
	describeTarget := func(table string) string {
		comps := b.d.ComponentsFor(table)
		if len(comps) == 0 {
			return "certain"
		}
		return fmt.Sprintf("components %v", comps)
	}
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		if st.Repair != nil || st.Choice != nil || st.Assert != nil {
			return fmt.Errorf("%w: repair/choice/assert inside SELECT (use CREATE TABLE AS … or the ASSERT statement)", errCompactUnsupported)
		}
		core_, cl, err := wsd.StripClosure(st)
		if err != nil {
			return err
		}
		if cl.IsConf() && !b.weighted {
			return fmt.Errorf("conf requires a probabilistic session: %w", worldset.ErrNotWeighted)
		}
		if st.GroupWorlds != nil {
			bld.WriteString("group worlds by: yes\n")
			core_.GroupWorlds = nil
		}
		text, err := b.d.ExplainSelect(core_, cl)
		if err != nil {
			return err
		}
		bld.WriteString(text)
	case *sqlparse.Update:
		fmt.Fprintf(bld, "plan:\n  Update %s [%s]\n", st.Table, describeTarget(st.Table))
	case *sqlparse.Delete:
		fmt.Fprintf(bld, "plan:\n  Delete %s [%s]\n", st.Table, describeTarget(st.Table))
	case *sqlparse.Insert:
		fmt.Fprintf(bld, "plan:\n  Insert %s (%d rows, certain part)\n", st.Table, len(st.Rows))
	case *sqlparse.CreateTableAs:
		q := st.Query
		switch {
		case q.Repair != nil:
			fmt.Fprintf(bld, "plan:\n  RepairByKey (%s) -> %s\n", strings.Join(q.Repair.Key, ", "), st.Name)
		case q.Choice != nil:
			fmt.Fprintf(bld, "plan:\n  ChoiceOf (%s) -> %s\n", strings.Join(q.Choice.Attrs, ", "), st.Name)
		default:
			fmt.Fprintf(bld, "materialize: table %s\n", st.Name)
			core_, cl, err := wsd.StripClosure(q)
			if err != nil {
				return err
			}
			if q.GroupWorlds != nil {
				bld.WriteString("group worlds by: yes\n")
				core_.GroupWorlds = nil
			}
			text, err := b.d.ExplainSelect(core_, cl)
			if err != nil {
				return err
			}
			bld.WriteString(text)
		}
	default:
		fmt.Fprintf(bld, "plan:\n  %s\n", stmt)
	}
	return nil
}

// execImport bulk-loads a CSV file through the shared import classifier
// and registers the plan on the decomposition (wsd.Import): certain rows
// in one batch, one component per uncertainty group. Both backends consume
// the identical relation.ImportPlan, so their world-sets agree by
// construction.
func (b *compactBackend) execImport(st *sqlparse.Import) (*core.Result, error) {
	if st.Weight != "" && !b.weighted {
		return nil, fmt.Errorf("weight requires a probabilistic session: %w", worldset.ErrNotWeighted)
	}
	plan, err := relation.LoadCSVFile(st.Path, relation.ImportOptions{
		NullsChoice: st.NullsChoice,
		RepairKey:   st.RepairKey,
		Weight:      st.Weight,
	})
	if err != nil {
		return nil, err
	}
	if err := b.d.Import(st.Table, plan); err != nil {
		return nil, err
	}
	return b.ok("imported %s: %d certain row(s), %d uncertainty group(s); %s world(s)",
		st.Table, plan.Certain.Len(), len(plan.Groups), b.d.WorldCount())
}

// execInsert appends constant rows to a certain relation. Row
// construction (column-list reorder, NULL-fill, constant-expression
// evaluation) is shared with the naive engine via plan.ConstInsertRows.
func (b *compactBackend) execInsert(st *sqlparse.Insert) (*core.Result, error) {
	sch, err := b.d.Schema(st.Table)
	if err != nil {
		return nil, err
	}
	rows, err := plan.ConstInsertRows(st, sch)
	if err != nil {
		return nil, err
	}
	if err := b.d.InsertCertain(st.Table, rows); err != nil {
		return nil, err
	}
	return b.ok("inserted %d row(s) into %s", len(rows), st.Table)
}

// execAssert applies the standalone ASSERT statement: the compact
// counterpart of the paper's assert clause (which the naive engine runs inside
// SELECT and makes durable via CREATE TABLE AS). The condition template
// compiles once through the shared plan cache (see WSD.AssertStmt), and its
// subqueries poll the interrupt hook.
func (b *compactBackend) execAssert(st *sqlparse.Assert) (*core.Result, error) {
	if sqlparse.HasISQLDeep(&sqlparse.SelectStmt{Where: st.Cond, Limit: -1}) {
		return nil, fmt.Errorf("%w: I-SQL constructs in assert conditions", errCompactUnsupported)
	}
	if err := b.d.AssertStmt(st.Cond); err != nil {
		return nil, err
	}
	return b.ok("asserted; %s world(s) remain", b.d.WorldCount())
}

// execCreateAs materializes a query: repair/choice over `select * from t`
// become decomposition components (splitting the feeding components in
// place when t is uncertain); closed and grouped queries store their
// factorized answers (certain closure / per-group contributions); plain
// SQL is stored componentwise when the compiled plan decomposes (no
// merge) and by bounded partial expansion otherwise.
func (b *compactBackend) execCreateAs(st *sqlparse.CreateTableAs) (*core.Result, error) {
	q := st.Query
	if q.Repair != nil || q.Choice != nil {
		qc := *q
		qc.Repair, qc.Choice = nil, nil
		if qc.HasISQL() {
			return nil, fmt.Errorf("%w: combining repair/choice with other I-SQL constructs", errCompactUnsupported)
		}
		if src, ok := plainStarSource(q); ok {
			if q.Repair != nil {
				if err := b.d.RepairByKey(src, st.Name, q.Repair.Key, q.Repair.Weight); err != nil {
					return nil, err
				}
				return b.ok("created table %s: repair of %s (%s worlds)", st.Name, src, b.d.WorldCount())
			}
			if err := b.d.ChoiceOf(src, st.Name, q.Choice.Attrs, q.Choice.Weight); err != nil {
				return nil, err
			}
			return b.ok("created table %s: choice over %s (%s worlds)", st.Name, src, b.d.WorldCount())
		}
		// Filtered/projected source: materialize it transiently, split, and
		// drop the transient — the components carry the new relation alone.
		// Only row-wise projections commute with the split; anything that
		// looks across rows is refused with the construct named.
		if c := wsd.SplitSourceBlocker(&qc); c != "" {
			return nil, fmt.Errorf("%w: repair/choice over a source using %s (the split applies to the source rows; materialize the source first with CREATE TABLE AS)", errCompactUnsupported, c)
		}
		if q.Repair != nil {
			if err := b.d.RepairByKeyQuery(&qc, st.Name, q.Repair.Key, q.Repair.Weight); err != nil {
				return nil, err
			}
			return b.ok("created table %s: repair of a query source (%s worlds)", st.Name, b.d.WorldCount())
		}
		if err := b.d.ChoiceOfQuery(&qc, st.Name, q.Choice.Attrs, q.Choice.Weight); err != nil {
			return nil, err
		}
		return b.ok("created table %s: choice over a query source (%s worlds)", st.Name, b.d.WorldCount())
	}
	if q.Assert != nil {
		// ASSERT inside CREATE TABLE AS: filter + renormalize the world-set
		// first, then materialize the rest of the query on the survivors —
		// per-world evaluation commutes with the world filter, so this is
		// exactly the naive engine's durable assert.
		if err := b.d.AssertStmt(q.Assert); err != nil {
			return nil, err
		}
		qc := *q
		qc.Assert = nil
		q = &qc
	}
	qcore, cl, err := wsd.StripClosure(q)
	if err != nil {
		return nil, err
	}
	gw := q.GroupWorlds
	qcore.GroupWorlds = nil
	if gw == nil && cl == wsd.ClosureNone {
		if err := b.d.CreateTableAs(st.Name, qcore); err != nil {
			return nil, err
		}
		return b.ok("created table %s", st.Name)
	}
	if gw != nil && sqlparse.HasISQLDeep(gw) {
		return nil, fmt.Errorf("group worlds by subquery must be plain SQL")
	}
	if cl.IsConf() && !b.weighted {
		return nil, fmt.Errorf("conf requires a probabilistic session: %w", worldset.ErrNotWeighted)
	}
	if err := b.d.CreateTableAsClosure(st.Name, qcore, cl, gw); err != nil {
		return nil, err
	}
	return b.ok("created table %s", st.Name)
}

// execSelect answers SELECT statements through the analyzed-plan executor:
// POSSIBLE / CERTAIN / CONF close over per-alternative answers — with no
// component merge whenever the compiled plan decomposes — GROUP WORLDS BY
// groups by per-component answer fingerprints, and plain SQL must be
// world-independent.
func (b *compactBackend) execSelect(st *sqlparse.SelectStmt) (*core.Result, error) {
	if st.Repair != nil || st.Choice != nil || st.Assert != nil {
		return nil, fmt.Errorf("%w: repair/choice/assert inside SELECT (use CREATE TABLE AS … or the ASSERT statement)", errCompactUnsupported)
	}
	core_, cl, err := wsd.StripClosure(st)
	if err != nil {
		return nil, err
	}
	if cl.IsConf() && !b.weighted {
		return nil, fmt.Errorf("conf requires a probabilistic session: %w", worldset.ErrNotWeighted)
	}
	if st.GroupWorlds != nil {
		return b.execGroupWorlds(st.GroupWorlds, core_, cl)
	}
	rel, err := b.d.SelectClosure(core_, cl)
	if err != nil {
		if errors.Is(err, wsd.ErrPerWorld) {
			return nil, fmt.Errorf("%w: %v", errCompactUnsupported, err)
		}
		return nil, err
	}
	return &core.Result{
		Kind:     core.ResultClosed,
		Groups:   []core.GroupRows{{Prob: 1, Rel: rel}},
		Weighted: b.weighted,
		Ordered:  cl == wsd.ClosureNone && st.OrdersAnswer(),
	}, nil
}

// execGroupWorlds answers SELECT … GROUP WORLDS BY (q): worlds group by
// the fingerprint of q's per-world answer, the closure applies within each
// group. Group membership is not enumerated (it can span astronomically
// many worlds), so Groups carries probabilities and closed answers only —
// no world name lists.
func (b *compactBackend) execGroupWorlds(gw, core_ *sqlparse.SelectStmt, cl wsd.Closure) (*core.Result, error) {
	if sqlparse.HasISQLDeep(gw) {
		return nil, fmt.Errorf("group worlds by subquery must be plain SQL")
	}
	// StripClosure copies the statement, grouping clause included; the core
	// handed to the engine must be the plain-SQL part alone.
	core_.GroupWorlds = nil
	groups, err := b.d.GroupWorldsClosure(gw, core_, cl)
	if err != nil {
		return nil, err
	}
	out := &core.Result{Kind: core.ResultClosed, Weighted: b.weighted}
	for _, g := range groups {
		out.Groups = append(out.Groups, core.GroupRows{Prob: g.Prob, Rel: g.Rel})
	}
	return out, nil
}

// plainStarSource reports whether a repair/choice query core is exactly
// `select * from t` — the fast path splitting t directly, with no
// transient materialization (any other plain-SQL source goes through
// RepairByKeyQuery/ChoiceOfQuery).
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
