package wsd

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

// checkDeltaParts asserts the identity queryByComponent's consumers rest on,
// against the full per-part evaluation: for every (component, alternative)
// of sql's root core.Closure, base ∪ Δ equals Q(cert ∪ contribution) as sets, and
// base ++ Δ equals it row for row when the analysis says Concat. It also
// checks the parts against the per-alternative oracle (checkTaggedParts).
func checkDeltaParts(t *testing.T, label string, d *WSD, sql string) {
	t.Helper()
	core := mustCore(t, sql)
	an, ev := analyzed(t, d, core)
	if !an.Decomposable {
		t.Fatalf("%s %q is not decomposable", label, sql)
	}
	checkTaggedParts(t, label, d, core)
	comps := d.rootClosure(an.Comps)
	p, err := d.queryByComponent(comps, ev.part, nil)
	if err != nil {
		t.Fatalf("%s %q: %v", label, sql, err)
	}
	for _, ci := range comps {
		for a := range d.comps[ci].Alts {
			full, err := ev.batch(newPartsCatalog(d, map[int]int{ci: a}))
			if err != nil {
				t.Fatalf("%s %q full part (%d,%d): %v", label, sql, ci, a, err)
			}
			parts := []colbatch.Part{{B: p.base}}
			if delta := p.part(ci, a).batch(); delta != nil {
				parts = append(parts, colbatch.Part{B: delta})
			}
			sum := colbatch.Concat(p.base.Schema, parts)
			got, want := relation.FromBatch(sum), relation.FromBatch(full)
			if !got.EqualSet(want) {
				t.Errorf("%s %q part (%d,%d): base ∪ Δ differs from the full evaluation\nbase ++ Δ:\n%sfull:\n%s", label, sql, ci, a, got, want)
			}
			if an.Concat && got.String() != want.String() {
				t.Errorf("%s %q part (%d,%d): base ++ Δ differs from the full evaluation\nbase ++ Δ:\n%sfull:\n%s", label, sql, ci, a, got, want)
			}
		}
	}
}

// deltaQueries is the delta-parts corpus: every plan shape the tagged delta
// covers, over fuzzPair's tables plus F, G, M and T.
var deltaQueries = []string{
	"select K, V from M",
	"select K from M where V >= 1",
	"select M.K, S.Y from M, S where M.V = S.V",
	"select S.Y, M.K from S, M where S.V = M.V",
	"select a.V, b.W from P a, P b where a.K = b.K",
	"select a.V, b.V from T a, T b where a.V = b.V",
	"select a.V, b.W, c.K from T a, T b, T c where a.V = b.V and b.V = c.V",
	"select S.Y, a.W, b.K from S, T a, T b where a.V = b.V",
	"select a.W, S.Y, b.K from T a, S, T b where a.V = b.V",
	"select V from S union all select V from M",
	"select V from M union all select V from S",
	"select V from M union select V from S",
	"select V from S union select distinct V from P",
	"select V from S union all select distinct V from M",
	"select distinct V from M",
	"select distinct V from P",
	"select K, V from M order by V desc, K",
	"select K from M where exists (select * from S where S.V = M.V)",
	"select K from M where V >= (select min(V) from S)",
	"select K, V, W from P",
	"select P.W, S.Y from P, S where P.V = S.V",
	"select Y from S",
	"select M.K, F.Z from M, F where M.V = F.V",
	"select F.Z from F, M where F.V = M.V and M.K >= 1",
	"select M.K, S.Y from M, S where M.V = S.V and S.Y <> 'y1'",
	"select G.K, F.Z from G, F where G.V = F.V",
	"select G.K, S.Y from G, S where G.V = S.V and G.K <> 2",
	"select a.K, b.W from P a, P b where a.V = b.V and a.W = b.W",
}

// TestDeltaPartsEqualFullParts runs checkDeltaParts over the componentwise
// and conditional fuzz fixtures — fuzzPair plus M and T, the repair source R's
// rows as a certain part under I's contributions (one component per key
// group) and under P's (one component); every other trial nests a repair under
// M's alternatives — with one query per delta rule: scans and filters,
// a join against a certain table on either side, a self-join within one
// component (twice and three times over), UNION with the
// certain arm on either side, DISTINCT at the root and below it, ORDER BY, a
// certain correlated subquery in WHERE, and an empty certain part (P) — and
// hash joins over keyedTables' F and G: NULL and mixed int/float keys, keys
// projected away, a filter sunk onto the certain and onto the uncertain side,
// two keys on a self-join within one component.
func TestDeltaPartsEqualFullParts(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 10; trial++ {
		label := fmt.Sprintf("trial %d", trial)
		qs := deltaQueries
		build := func() *WSD {
			r := rand.New(rand.NewSource(int64(61 + trial)))
			_, d := fuzzPair(t, r)
			f, fr := keyedTables()
			if err := d.PutCertain("F", f); err != nil {
				t.Fatal(err)
			}
			if err := d.PutCertain("FR", fr); err != nil {
				t.Fatal(err)
			}
			if err := d.repairByKey("FR", "G", []string{"K"}, "W"); err != nil {
				t.Fatal(err)
			}
			if err := d.createTableAs("M", mustCore(t, "select K, V, W from R union all select K, V, W from I")); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := d.createTableAs("T", mustCore(t, "select K, V, W from R union all select K, V, W from P")); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if d.certain[key("M")].Len() == 0 || d.certain[key("T")].Len() == 0 || d.MergeCount() != 0 {
				t.Fatalf("%s: fixture M or T has no certain part, or merged", label)
			}
			if trial%2 == 1 {
				src := fmt.Sprintf("create table N as select K, V, W from M where V <= %d repair by key V", 1+r.Intn(2))
				if _, err := d.Exec(src); err != nil {
					t.Fatalf("%s: nested repair: %v", label, err)
				}
			}
			return d
		}
		if trial%2 == 1 {
			label += " nested"
			qs = append(append([]string(nil), deltaQueries...),
				"select K, V from N",
				"select N.K, S.Y from N, S where N.V = S.V",
				"select distinct V from N",
				"select V from S union all select V from N",
			)
		}
		d, merged := build(), build()
		before := d.MergeCount() // the nested repair may merge its feeders
		for _, sql := range qs {
			checkDeltaParts(t, label, d, sql)
			// End to end: the closures folded from base and deltas against the
			// merge route's, as sets (conf to 1e-9: a certain-answer tuple gets
			// exactly 1, not a sum of probabilities).
			for _, cl := range []string{"possible", "certain", "conf"} {
				q := strings.Replace(sql, "select ", "select "+cl+" ", 1)
				if cl == "conf" {
					q = strings.Replace(sql, " from ", ", conf from ", 1)
				}
				core, c := parseCore(t, q)
				rel, err := selectExplained(t, d, core, c)
				if err != nil {
					t.Fatalf("%s %q: %v", label, q, err)
				}
				if got, want := renderSet(t, rel, cl == "conf"), renderSet(t, selectMerged(t, merged, q), cl == "conf"); got != want {
					t.Errorf("%s %q diverged from the merge route:\n%s\nwant:\n%s", label, q, got, want)
				}
			}
		}
		if d.MergeCount() != before {
			t.Errorf("%s: a decomposable closure merged", label)
		}
		// Every plan shape reports componentwise over flat components, the
		// three-way self-joins included.
		if trial%2 == 0 && d.RouteCounts()["conditional"] != 0 {
			t.Errorf("%s: %d closures over flat components reported conditional", label, d.RouteCounts()["conditional"])
		}
	}
}

// importedWSD bulk-loads rows rows of (K, A, Cat, W) with 4 NULL categories
// (a choice among four each) and 4 two-row key conflicts: 8 components, 24
// alternatives of one row each, everything else certain — bench/'s ingest.dml
// shape.
func importedWSD(t *testing.T, rows int) *WSD {
	t.Helper()
	var csv strings.Builder
	csv.WriteString("K,A,Cat,W\n")
	every := rows / 8
	for i, k := 0, 0; i < rows; i++ {
		dirt, at := i/every, i%every
		if at != every/2 || dirt >= 4 {
			k++ // else: repeat the key of the row before
		}
		cat := fmt.Sprint(i % 4)
		if at == every-1 && dirt < 4 {
			cat = ""
		}
		fmt.Fprintf(&csv, "%d,%d,%s,%d\n", k, (i*7919)%1000, cat, 1+i%5)
	}
	p, err := relation.LoadCSV(strings.NewReader(csv.String()),
		relation.ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"})
	if err != nil {
		t.Fatal(err)
	}
	d := New(true)
	if err := d.Import("B", p); err != nil {
		t.Fatal(err)
	}
	return d
}

// countingCatalog counts the rows of every relation a part catalog hands
// out. A part catalog has no full lookup (certain part and contributions
// together, the one way an evaluation sees a world's instance), so a delta
// evaluation cannot be handed a table in full.
type countingCatalog struct {
	plan.PartsCatalog
	rows *atomic.Int64
}

func (c countingCatalog) count(rel *relation.Relation, err error) (*relation.Relation, error) {
	c.rows.Add(int64(rel.Len()))
	return rel, err
}

func (c countingCatalog) Certain(name string) (*relation.Relation, error) {
	return c.count(c.PartsCatalog.Certain(name))
}

func (c countingCatalog) Delta(name string) (*relation.Relation, error) {
	return c.count(c.PartsCatalog.Delta(name))
}

// TestCertainPartLookedUpOnce holds "once" as a count: the evaluations of a
// closure over 40 000 imported rows with 24 alternatives of dirt read the
// certain part for the base evaluation — not once more per alternative. (The
// full per-part evaluation handed out 26 × the certain part.) Under a DISTINCT
// the deltas subtract the certain input's tuples, one more read for the
// statement, not one per delta.
func TestCertainPartLookedUpOnce(t *testing.T) {
	const rows = 40000
	d := importedWSD(t, rows)
	for _, c := range []struct {
		sql       string
		certReads int
	}{
		{"select K from B where K >= 10000 and K < 10060 and A > 250", 1},
		{"select distinct Cat from B where K >= 10000 and K < 10060", 2},
	} {
		an, ev := analyzed(t, d, mustCore(t, c.sql))
		if len(an.Comps) != 8 || d.AlternativeCount() != 24 {
			t.Fatalf("fixture: %d components, %d alternatives, want 8 and 24", len(an.Comps), d.AlternativeCount())
		}
		cert, contrib := d.certain[key("B")].Len(), 24 // every alternative contributes one row
		if cert+12 != rows {                           // 4 NULL rows and 4 conflicts of two
			t.Fatalf("fixture: %d certain rows of %d, want all but 12", cert, rows)
		}
		var handed atomic.Int64
		p, err := d.queryByComponent(an.Comps,
			func(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error) {
				return ev.part(countingCatalog{cat, &handed}, delta)
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.base.Len() == 0 {
			t.Errorf("%q: the certain-only answer is empty", c.sql)
		}
		if got, limit := handed.Load(), int64(c.certReads*cert+contrib+24); got > limit {
			t.Errorf("%q: the catalog handed out %d rows, limit %d = %d·%d certain + %d contributed + 24 (the parent: %d)",
				c.sql, got, limit, c.certReads, cert, contrib, 26*cert+8+24)
		}
	}
}

// TestDeltasShareBuild: the deltas of a hash join against a certain table
// probe the statement's one table of it, the one Q(cert) probes too. Three
// deltas of one Deltas and Q(cert), run concurrently through the statement's
// memo, hash the certain side once — one shared build in the trace — while
// each bind looks the side up, a pointer that keys the memo, and no
// evaluation is handed a table in full; over a columnar build side (a side
// past colbatch.Floor) and a row-backed one (under it). Each delta still
// answers as the full evaluation of its part does.
func TestDeltasShareBuild(t *testing.T) {
	for _, sideRows := range []int{64, 8} {
		d := New(true)
		src, side := relation.New(schema.New("K", "V", "W")), relation.New(schema.New("V", "Y"))
		for k := 0; k < 3; k++ {
			src.MustAppend(row(k, k, 1))
			src.MustAppend(row(k, k+1, 1))
		}
		for v := 0; v < sideRows; v++ {
			side.MustAppend(row(v%4, fmt.Sprintf("y%d", v)))
		}
		if err := d.PutCertain("R", src); err != nil {
			t.Fatal(err)
		}
		if err := d.PutCertain("S", side); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		const sql = "select I.K, S.Y from I, S where I.V = S.V"
		// The statement is set before its evaluator is built: an evaluator
		// drains under the context of the statement it was built in.
		tr := obs.NewTrace(sql)
		d.SetStatement(nil, tr)
		an, ev := analyzed(t, d, mustCore(t, sql))
		if len(an.Comps) != 3 {
			t.Fatalf("fixture: %d components, want 3", len(an.Comps))
		}
		var handed atomic.Int64
		contributed := 0
		errs := make([]error, len(an.Comps)+1)
		var wg sync.WaitGroup
		for i, ci := range an.Comps {
			contributed += d.comps[ci].Alts[1].Contrib[key("I")].Len()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = ev.part(countingCatalog{alternativeCatalog{d: d, ci: ci, a: 1}, &handed}, true)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[len(an.Comps)] = ev.part(countingCatalog{alternativeCatalog{d: d, ci: an.Comps[0], a: 1}, &handed}, false)
		}()
		wg.Wait()
		d.SetStatement(nil, nil)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := handed.Load(), int64(4*sideRows+contributed); got != want {
			t.Errorf("side of %d rows: the catalog handed out %d rows, want %d = the certain side to each of 4 binds + %d contributed",
				sideRows, got, want, contributed)
		}
		if got := attr(tr, "shared_builds"); got != "1" {
			t.Errorf("side of %d rows: shared_builds = %q, want 1: Q(cert) and the 3 deltas hash the certain side once", sideRows, got)
		}
		checkDeltaParts(t, fmt.Sprintf("side of %d rows", sideRows), d, sql)
	}
}

// attr returns the trace attribute key's last value ("" when unset).
func attr(tr *obs.Trace, key string) string {
	v := ""
	for _, a := range tr.JSON().Attrs {
		if a.Key == key {
			v = a.Value
		}
	}
	return v
}

// TestClosureEvaluatesNoWorld: POSSIBLE, CERTAIN and CONF on the merge-free
// routes are answered from exactly two evaluations, Q(cert) and one tagged
// delta of every alternative of the involved trees, neither of which can be
// handed the uncertain table in full (a part catalog has no full lookup):
// no first world, no deviation worlds, no evaluation per alternative. Over
// Figure 2's flat repair and over a repair chained on it (every alternative
// carrying a child component).
func TestClosureEvaluatesNoWorld(t *testing.T) {
	chained := newFigure2WSD(t)
	if err := chained.repairByKey("I", "N", []string{"A", "B"}, ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d    *WSD
		rel  string
		kind routeKind
	}{
		{newFigure2WSD(t), "I", routeComponentwise},
		{chained, "N", routeCondFold},
	} {
		q := mustCore(t, "select A, B from "+c.rel)
		an, ev := analyzed(t, c.d, q)
		sizes := 0
		for _, ci := range c.d.rootClosure(an.Comps) {
			sizes += len(c.d.comps[ci].Alts)
		}
		if sizes < 4 {
			t.Fatalf("fixture %s: %d alternatives, want several", c.rel, sizes)
		}
		for _, cl := range []core.Closure{core.ClosurePossible, core.ClosureCertain, core.ClosureConf} {
			dec := c.d.routeCore(q, an, cl, false)
			if dec.kind != c.kind {
				t.Fatalf("%s of %s routes %s, want %s", cl, c.rel, dec.kind, c.kind)
			}
			var evals, deltas, rows atomic.Int64
			parts, err := c.d.evalParts(dec, func(cat plan.PartsCatalog, delta bool) (*colbatch.Batch, error) {
				evals.Add(1)
				if delta {
					deltas.Add(1)
				}
				return ev.part(countingCatalog{cat, &rows}, delta)
			})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := c.d.closeParts(parts, cl)
			if err != nil {
				t.Fatal(err)
			}
			if cl != core.ClosureCertain && rel.Len() != 5 {
				t.Errorf("%s of %s: %d rows, want 5", cl, c.rel, rel.Len())
			}
			if got := evals.Load(); got != 2 || deltas.Load() != 1 {
				t.Errorf("%s of %s ran %d evaluations (%d deltas), want 2: certain-only and one tagged delta of %d alternatives",
					cl, c.rel, got, deltas.Load(), sizes)
			}
		}
	}
}

// TestDistinctDeltaDropsCertainTuples: under a DISTINCT a contributed tuple
// equal to a tuple of the DISTINCT's certain input is new in no world, so the
// positional consumers must not show it twice — the stored relation of a
// componentwise CREATE TABLE AS represents the merge path's worlds, and the
// conditional relation lists the tuple once, unconditioned. That holds for a
// DISTINCT at the root and for one below a UNION ALL, which dedups against a
// part of the certain answer only: both are stored, and answered, without a
// merge.
func TestDistinctDeltaDropsCertainTuples(t *testing.T) {
	build := func() *WSD {
		d := New(true)
		c := relation.New(schema.New("V"))
		c.MustAppend(row(1))
		r := relation.New(schema.New("K", "V"))
		r.MustAppend(row("k1", 1)) // contributed, equal to the certain V
		r.MustAppend(row("k1", 2))
		if err := d.PutCertain("C", c); err != nil {
			t.Fatal(err)
		}
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		// M: C's row as the certain part, I's two alternatives beside it.
		if err := d.createTableAs("M", mustCore(t, "select V from C union all select V from I")); err != nil {
			t.Fatal(err)
		}
		if got := d.certain[key("M")].Len(); got != 1 || d.MergeCount() != 0 {
			t.Fatalf("fixture: %d certain rows in M after %d merges, want 1 and 0", got, d.MergeCount())
		}
		return d
	}
	for _, sql := range []string{
		"select distinct V from M",
		"select V from C union select distinct V from M",
		"select V from C union all select distinct V from M",
	} {
		core := mustCore(t, sql)
		fast, slow := build(), build()
		if err := fast.createTableAs("D", core); err != nil {
			t.Fatal(err)
		}
		createTableMerged(t, slow, "D", core)
		matchViews(t, wsdViews(t, slow, "D"), wsdViews(t, fast, "D"))
		if err := fast.CheckInvariant(); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
		if fast.MergeCount() != 0 {
			t.Errorf("%q was stored through a merge", sql)
		}
	}

	rel := selectOn(t, build(), "select distinct V from M")
	if got, want := renderRel(rel), renderRel(rowsRel(rel.Schema, []tuple.Tuple{row(1, ""), row(2, "c0=1")})); got != want {
		t.Errorf("conditional relation of a DISTINCT:\n%swant V=1 unconditioned and V=2 under c0=1", rel)
	}
	rel = selectOn(t, build(), "select V from C union all select distinct V from M")
	if got, want := renderRel(rel), renderRel(rowsRel(rel.Schema, []tuple.Tuple{row(1, ""), row(1, ""), row(2, "c0=1")})); got != want {
		t.Errorf("conditional relation of a DISTINCT below UNION ALL:\n%swant V=1 twice unconditioned and V=2 under c0=1", rel)
	}
}
