package wsd

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/core"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/world"
	"maybms/internal/worldset"
)

func TestInvolvedComponents(t *testing.T) {
	d := newFigure2WSD(t)
	if got := d.componentsFor("I"); len(got) != 3 {
		t.Errorf("I involves %d components, want 3", len(got))
	}
	if got := d.componentsFor("R"); len(got) != 0 {
		t.Errorf("R involves %d components, want 0 (certain)", len(got))
	}
	if got := d.componentsFor("nope"); len(got) != 0 {
		t.Errorf("unknown relation involves %d components", len(got))
	}
}

func TestMergeSingleComponentIsNoop(t *testing.T) {
	d := newFigure2WSD(t)
	before := d.ComponentCount()
	c, err := d.mergeComponents([]int{1})
	if err != nil || c != 1 {
		t.Fatalf("merge single = %v, %v", c, err)
	}
	if d.ComponentCount() != before {
		t.Error("single-component merge must not restructure")
	}
	none, err := d.mergeComponents(nil)
	if err != nil || none != -1 {
		t.Errorf("empty merge = %v, %v", none, err)
	}
}

func TestMergeProductProbabilities(t *testing.T) {
	d := newFigure2WSD(t)
	mi, err := d.mergeComponents([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	merged := d.comps[mi]
	if len(merged.Alts) != 4 {
		t.Fatalf("merged alternatives = %d, want 4", len(merged.Alts))
	}
	total := 0.0
	for _, a := range merged.Alts {
		total += a.Prob
		// Each merged alternative contributes one full repair (3 tuples).
		if a.Contrib["i"].Len() != 3 {
			t.Errorf("merged alt has %d I tuples", a.Contrib["i"].Len())
		}
	}
	if math.Abs(total-1) > eps {
		t.Errorf("merged probs sum to %g", total)
	}
	if d.ComponentCount() != 1 {
		t.Errorf("components after merge = %d", d.ComponentCount())
	}
	// World count is preserved by merging.
	if d.WorldCount().Cmp(big.NewInt(4)) != 0 {
		t.Errorf("world count after merge = %s", d.WorldCount())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

// TestPartsCatalogLookup: a relation's instance in the selected worlds is its
// certain part followed by the selected alternatives' contributions.
func TestPartsCatalogLookup(t *testing.T) {
	d := newFigure2WSD(t)
	cat := newPartsCatalog(d, nil)
	r, err := cat.Lookup("R")
	if err != nil || r.Len() != 5 {
		t.Errorf("certain lookup = %v, %v", r, err)
	}
	// Without an alternative, an uncertain relation shows only its
	// certain part (empty here).
	i, err := cat.Lookup("I")
	if err != nil || i.Len() != 0 {
		t.Errorf("uncertain lookup without alt = %v, %v", i, err)
	}
	// Contribution only: a1's second repair.
	one := newPartsCatalog(d, map[int]int{0: 1})
	i, err = one.Lookup("I")
	if err != nil || renderRel(i) != renderRel(rowsRel(i.Schema, []tuple.Tuple{row("a1", 15, "c2", 6)})) {
		t.Errorf("contribution-only lookup = %v, %v", i, err)
	}
	// Both: a certain row first, then the contribution.
	d.certain["i"] = rowsRel(d.schemas["i"], []tuple.Tuple{row("a0", 1, "c0", 1)})
	i, err = one.Lookup("I")
	if err != nil || renderRel(i) != renderRel(rowsRel(i.Schema, []tuple.Tuple{row("a0", 1, "c0", 1), row("a1", 15, "c2", 6)})) {
		t.Errorf("certain-and-contribution lookup = %v, %v", i, err)
	}
	if _, err := cat.Lookup("nope"); !errors.Is(err, world.ErrUnknown) {
		t.Errorf("unknown lookup = %v", err)
	}
}

func TestAssertPredicateErrorPropagates(t *testing.T) {
	d := newFigure2WSD(t)
	boom := errors.New("boom")
	err := d.assert(d.componentsFor("I"), func(plan.Catalog) (bool, error) { return false, boom })
	if !errors.Is(err, boom) {
		t.Errorf("assert error = %v", err)
	}
	d2 := New(true)
	if err := d2.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	err = d2.assert(d2.componentsFor("R"), func(plan.Catalog) (bool, error) { return false, boom })
	if !errors.Is(err, boom) {
		t.Errorf("certain assert error = %v", err)
	}
}

func TestMaterializeErrors(t *testing.T) {
	d := newFigure2WSD(t)
	mi, err := d.mergeComponents(d.componentsFor("I"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = d.queryByComponent([]int{mi}, func(plan.PartsCatalog, bool) (*colbatch.Batch, error) {
		return nil, boom
	}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("evaluation error = %v", err)
	}
	// Name collision.
	err = d.materializeByComponent("I", &componentParts{idx: []int{mi}, base: colbatch.New(schema.New("X"))})
	if !errors.Is(err, core.ErrExists) {
		t.Errorf("materialize collision = %v", err)
	}
	// Certain-path collision.
	d2 := New(true)
	if err := d2.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d2.createTableAs("R", mustCore(t, "select * from R")); !errors.Is(err, core.ErrExists) {
		t.Errorf("certain materialize collision = %v", err)
	}
}

func TestMaterializeThenConfPipeline(t *testing.T) {
	// End-to-end compact pipeline: repair → per-world SQL materialize on the
	// merge route → confidence of derived tuples, validated against hand
	// computation.
	d := newFigure2WSD(t)
	createTableMerged(t, d, "HighB", mustCore(t, "select * from I where B >= 15"))
	// (a1,15,c2,6) is in HighB iff a1's repair chose B=15: conf 0.75.
	c, err := tupleConf(d, "HighB", row("a1", 15, "c2", 6))
	if err != nil || math.Abs(c-0.75) > eps {
		t.Errorf("derived conf = %v, %v", c, err)
	}
	// (a3,20,c5,6) is always there.
	c, err = tupleConf(d, "HighB", row("a3", 20, "c5", 6))
	if err != nil || math.Abs(c-1) > eps {
		t.Errorf("derived certain conf = %v, %v", c, err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantFailures(t *testing.T) {
	d := newFigure2WSD(t)
	// Corrupt a probability.
	d.comps[0].Alts[0].Prob = 0.9
	if err := d.CheckInvariant(); err == nil {
		t.Error("corrupted probabilities must fail the invariant")
	}
	d2 := newFigure2WSD(t)
	d2.comps[0].Alts = nil
	if err := d2.CheckInvariant(); err == nil {
		t.Error("empty component must fail the invariant")
	}
	d3 := newFigure2WSD(t)
	d3.comps[0].Alts[0].Contrib["ghost"] = d3.comps[0].Alts[0].Contrib["i"]
	if err := d3.CheckInvariant(); err == nil {
		t.Error("contribution to unknown relation must fail the invariant")
	}
	d4 := newFigure2WSD(t)
	// Contributions are schema-checked relations now, so a wrong-width
	// tuple cannot be appended; corrupt the stored relation wholesale.
	bad := relation.New(schema.New("A", "B"))
	bad.MustAppend(row("too", 1))
	d4.comps[0].Alts[0].Contrib["i"] = bad
	if err := d4.CheckInvariant(); err == nil {
		t.Error("width mismatch must fail the invariant")
	}
}

func TestExpandWithNoComponents(t *testing.T) {
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	set, err := d.Expand(0)
	if err != nil || set.Len() != 1 {
		t.Fatalf("expand = %v, %v", set, err)
	}
	r, err := set.Worlds[0].Lookup("R")
	if err != nil || r.Len() != 5 {
		t.Errorf("expanded certain relation = %v, %v", r, err)
	}
	if math.Abs(set.Worlds[0].Prob-1) > eps {
		t.Errorf("single world prob = %g", set.Worlds[0].Prob)
	}
}

func TestAddComponentValidation(t *testing.T) {
	d := New(true)
	if _, err := d.addComponent(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty component = %v", err)
	}
	if _, err := d.addComponent([]Alternative{{Prob: 0.5}}); err == nil {
		t.Error("probs not summing to 1 must fail")
	}
	if _, err := d.addComponent([]Alternative{{Prob: -1}, {Prob: 2}}); err == nil {
		t.Error("negative prob must fail")
	}
}

func TestUnweightedExpandAndPossible(t *testing.T) {
	d := New(false)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	set, err := d.Expand(0)
	if err != nil || set.Len() != 4 || set.Weighted {
		t.Fatalf("unweighted expand = %v, %v", set, err)
	}
	if poss := closed(t, d, "select possible * from I"); poss.Len() != 5 {
		t.Errorf("possible = %v", poss)
	}
	_ = fmt.Sprintf("%s", d) // String smoke
}

// TestRefusedMergeLeavesDecompositionUnchanged: a statement refused for
// size must not restructure anything. Over nested components the merge
// first condenses every involved d-tree, and the size check used to run
// after that — so a refused CONF or GROUP WORLDS BY left the trees
// flattened and the very same statement succeeded on retry (bench/README,
// "What the first runs found" #3). The fixture nests a chained repair under
// four two-alternative components (16 worlds, small enough to expand) with
// MergeLimit 8, so every tree condenses within the limit but their product
// does not.
func TestRefusedMergeLeavesDecompositionUnchanged(t *testing.T) {
	build := func() *WSD {
		d := New(true)
		rel := relation.New(schema.New("K", "V"))
		for k := 0; k < 4; k++ {
			rel.MustAppend(row(k, 0))
			rel.MustAppend(row(k, 1))
		}
		if err := d.PutCertain("R", rel); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("I", "J", []string{"K", "V"}, ""); err != nil {
			t.Fatal(err)
		}
		d.MergeLimit = 8
		return d
	}
	attempts := map[string]func(d *WSD) error{
		"conf over a grouped core": func(d *WSD) error {
			core, cl := parseCore(t, "select conf, K, V from J group by K, V")
			_, err := d.selectClosure(core, cl)
			return err
		},
		"group worlds by sharing components": func(d *WSD) error {
			core, cl := parseCore(t, "select possible K, V from J")
			gw, _ := parseCore(t, "select K from J where V = 0")
			_, err := d.groupWorldsClosure(gw, core, cl)
			return err
		},
		"assert": func(d *WSD) error {
			return d.assert(d.componentsFor("J"), func(plan.Catalog) (bool, error) { return true, nil })
		},
	}
	for name, attempt := range attempts {
		d := build()
		if nestedCount(d) == 0 {
			t.Fatal("fixture is not nested")
		}
		schemas, comps, alts := schemaDigest(d), d.ComponentCount(), d.AlternativeCount()
		worlds := wsdViews(t, d, "J")
		for try := 1; try <= 2; try++ {
			if err := attempt(d); !errors.Is(err, ErrMergeTooBig) {
				t.Fatalf("%s, attempt %d: err = %v, want ErrMergeTooBig", name, try, err)
			}
			if schemaDigest(d) != schemas || d.ComponentCount() != comps || d.AlternativeCount() != alts {
				t.Fatalf("%s, attempt %d: refused statement restructured the decomposition: %d components / %d alternatives, was %d / %d",
					name, try, d.ComponentCount(), d.AlternativeCount(), comps, alts)
			}
			if d.MergeCount() != 0 {
				t.Fatalf("%s, attempt %d: refused statement merged %d times", name, try, d.MergeCount())
			}
			matchViews(t, worlds, wsdViews(t, d, "J"))
		}
	}
}

// TestRefusedCondenseLeavesDecompositionUnchanged covers the two splits that
// condense a d-tree without merging (split.go): CHOICE OF over a single
// nested feeder, and REPAIR BY KEY where a nested feeder owns a key the
// certain part anchors. Neither passes through mergeComponents, so
// condenseTrees carries the MergeLimit check itself — refusing before any
// tree is restructured. The fixture's one tree (a choice root, four repair
// children under its first alternative, one under its second) has 2^4 + 2 =
// 18 worlds against a MergeLimit of 8; R is fed by one of the nested children
// alone, beside one certain row.
func TestRefusedCondenseLeavesDecompositionUnchanged(t *testing.T) {
	build := func() *WSD {
		d := New(true)
		c := relation.New(schema.New("A", "V", "X"))
		for v := 0; v < 4; v++ {
			c.MustAppend(row(0, v, 1))
			c.MustAppend(row(0, v, 2))
		}
		c.MustAppend(row(1, 10, 1))
		c.MustAppend(row(1, 10, 2))
		if err := d.PutCertain("C", c); err != nil {
			t.Fatal(err)
		}
		if err := d.choiceOf("C", "P", []string{"A"}, ""); err != nil {
			t.Fatal(err)
		}
		if err := d.repairByKey("P", "Q", []string{"V"}, ""); err != nil {
			t.Fatal(err)
		}
		anchor := relation.New(schema.New("V", "X"))
		anchor.MustAppend(row(0, 3))
		if err := d.PutCertain("T", anchor); err != nil {
			t.Fatal(err)
		}
		// R: one certain row — sharing the feeder's key, the anchor of the
		// repair case, and a non-empty instance where the feeder is inactive
		// for the choice case — beside the feeder's contributions.
		core, _ := parseCore(t, "select V, X from T union all select V, X from Q where V = 0")
		if err := d.createTableAs("R", core); err != nil {
			t.Fatal(err)
		}
		feeders := d.componentsFor("R")
		if len(feeders) != 1 || d.comps[feeders[0]].Parent < 0 || d.certain["r"].Len() != 1 {
			t.Fatalf("fixture: R is fed by components %v over %d certain rows, want one nested feeder over one", feeders, d.certain["r"].Len())
		}
		d.MergeLimit = 8
		return d
	}
	attempts := map[string]func(d *WSD) error{
		"choice of over a single nested feeder": func(d *WSD) error {
			return d.choiceOf("R", "S", []string{"X"}, "")
		},
		"repair by key anchored by a certain row": func(d *WSD) error {
			return d.repairByKey("R", "S", []string{"V"}, "")
		},
	}
	for name, attempt := range attempts {
		d := build()
		comps, alts := d.ComponentCount(), d.AlternativeCount()
		worlds := wsdViews(t, d, "Q")
		for try := 1; try <= 2; try++ {
			if err := attempt(d); !errors.Is(err, ErrMergeTooBig) {
				t.Fatalf("%s, attempt %d: err = %v, want ErrMergeTooBig", name, try, err)
			}
			if d.ComponentCount() != comps || d.AlternativeCount() != alts || d.MergeCount() != 0 {
				t.Fatalf("%s, attempt %d: refused split restructured the decomposition: %d components / %d alternatives / %d merges, was %d / %d / 0",
					name, try, d.ComponentCount(), d.AlternativeCount(), d.MergeCount(), comps, alts)
			}
			if _, ok := d.schemas["s"]; ok {
				t.Fatalf("%s, attempt %d: refused split registered its target", name, try)
			}
			matchViews(t, worlds, wsdViews(t, d, "Q"))
		}
		// Within the limit the same statement condenses the tree and succeeds.
		d.MergeLimit = 32
		if err := attempt(d); err != nil {
			t.Fatalf("%s within the limit: %v", name, err)
		}
		if d.MergeCount() == 0 {
			t.Fatalf("%s within the limit: nothing condensed — the fixture no longer reaches condenseTrees", name)
		}
	}
}

// TestMergeRouteMatchesWorldsetClosures pins the merge route to the answers
// it gave while it closed per-alternative relations with the worldset
// closures: worldset.Possible, Certain and Conf over the merged component's
// per-alternative full answers (Conf weighted by the alternatives'
// probabilities) are the reference, row for row — order, schema and conf
// bits included. Over one merged component the fold lists alternatives
// ascending, each tuple at its first appearance, and sums CONF in
// alternative order, which is exactly what those closures did. A scalar SUM
// or COUNT over flat M takes the convolution route instead: it is checked
// against the same reference as a set, its confidences within
// closuresAgree's bound, and its max counterpart keeps the merge route's
// bit-exact check.
func TestMergeRouteMatchesWorldsetClosures(t *testing.T) {
	// M: three keys with two values each (sums 3…33 across worlds), weighted
	// 1:2 so that sums of alternative probabilities are not exact binary
	// fractions; Q: a repair nested under a choice, a d-tree the merge
	// condenses.
	build := func(weighted bool) *WSD {
		d := New(weighted)
		weight := ""
		if weighted {
			weight = "W"
		}
		src := relation.New(schema.New("K", "V", "W"))
		for k := 0; k < 3; k++ {
			src.MustAppend(row(k, k, 1))
			src.MustAppend(row(k, 10+k, 2))
		}
		c := relation.New(schema.New("A", "V"))
		for _, r := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}} {
			c.MustAppend(row(r[0], r[1]))
		}
		for _, err := range []error{
			d.PutCertain("MSrc", src),
			d.repairByKey("MSrc", "M", []string{"K"}, weight),
			d.PutCertain("C", c),
			d.choiceOf("C", "P", []string{"A"}, ""),
			d.repairByKey("P", "Q", []string{"A"}, ""),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if nestedCount(d) == 0 {
			t.Fatal("fixture: Q is not nested")
		}
		return d
	}
	statements := []string{
		"select possible max(V) from M",
		"select certain max(V) from M",
		"select possible K, V from M where 30 > (select sum(V) from M)",
		"select certain K from M where 40 > (select sum(V) from M)",
		"select possible K, V from M group by K, V",
		"select certain K from M group by K, V",
		"select possible K, V from M order by V desc limit 2",
		"select certain K from M order by K limit 2",
		"select possible K from M where 15 > (select sum(V) from M)", // empty in most alternatives
		"select certain K from M where 15 > (select sum(V) from M)",
		"select possible K from M where 0 > (select sum(V) from M)", // empty in every alternative
		"select possible sum(V) from Q",
		"select certain count(*) from Q",
		"select possible A, V from Q where 2 < (select sum(V) from Q)",
	}
	weightedOnly := []string{
		"select conf, max(V) from M",
		"select K, conf from M where 30 > (select sum(V) from M)",
		"select conf, K, V from M group by K, V",
		"select conf, K, V from M order by V desc limit 2",
		"select conf, K from M where 0 > (select sum(V) from M)",
		"select conf, sum(V) from Q",
		"select A, V, conf from Q where 2 < (select sum(V) from Q)",
	}
	convolved := map[string]bool{
		"select possible sum(V) from M": true,
		"select certain sum(V) from M":  true,
		"select conf, sum(V) from M":    true,
	}
	for _, weighted := range []bool{true, false} {
		qs := append(append([]string(nil), statements...), "select possible sum(V) from M", "select certain sum(V) from M")
		if weighted {
			qs = append(append(qs, weightedOnly...), "select conf, sum(V) from M")
		}
		for _, sql := range qs {
			label := fmt.Sprintf("weighted=%v %q", weighted, sql)
			q, cl := parseCore(t, sql)
			d, ref := build(weighted), build(weighted)
			an, ev := analyzed(t, d, q)
			if dec := d.routeCore(q, an, cl, false); dec.kind != routeMerge {
				t.Fatalf("%s: routed %s, want merge", label, dec.kind)
			}
			before := d.RouteCounts()
			got, err := d.selectClosure(q, cl)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			an, ev = analyzed(t, ref, q)
			mi, err := ref.mergeComponents(an.Comps)
			if err != nil {
				t.Fatal(err)
			}
			alts := ref.comps[mi].Alts
			answers, probs := make([]*relation.Relation, len(alts)), make([]float64, len(alts))
			for a := range alts {
				b, err := ev.batch(newPartsCatalog(ref, map[int]int{mi: a}))
				if err != nil {
					t.Fatal(err)
				}
				answers[a], probs[a] = relation.FromBatch(b), alts[a].Prob
			}
			var want *relation.Relation
			switch cl {
			case core.ClosurePossible:
				want, err = worldset.Possible(answers, nil)
			case core.ClosureCertain:
				want, err = worldset.Certain(answers, nil)
			default:
				want, err = worldset.Conf(answers, probs, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			route := "merge"
			if convolved[sql] {
				route = "convolution"
				if err := closuresAgree(got, want, cl.IsConf()); err != nil {
					t.Errorf("%s: convolution route %v\n%s\nwant (worldset closures)\n%s", label, err, renderRel(got), renderRel(want))
				}
			} else if renderRel(got) != renderRel(want) {
				t.Errorf("%s: merge route\n%s\nwant (worldset closures)\n%s", label, renderRel(got), renderRel(want))
			}
			if n := d.RouteCounts()[route] - before[route]; n != 1 {
				t.Errorf("%s: %d statements took route %s, want 1", label, n, route)
			}
		}
	}
}

// TestSpanningGroupCertainPerGroup: after a spanning merge, CERTAIN within a
// group means in every alternative of that group. Grouping M's worlds by the
// value K = 1 takes makes two groups, each certain of its own value — where
// folding a group as the whole merged component would leave both empty.
func TestSpanningGroupCertainPerGroup(t *testing.T) {
	d := New(true)
	src := relation.New(schema.New("K", "V", "W"))
	for k := 0; k < 3; k++ {
		src.MustAppend(row(k, k, 1))
		src.MustAppend(row(k, 10+k, 3))
	}
	if err := d.PutCertain("MSrc", src); err != nil {
		t.Fatal(err)
	}
	if err := d.repairByKey("MSrc", "M", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	core, cl := parseCore(t, "select certain V from M where K = 1")
	groups, err := d.groupWorldsClosure(mustCore(t, "select V from M where K = 1"), core, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, want := range []int{1, 11} {
		g := groups[gi]
		if got := renderRel(g.Rel); got != renderRel(rowsRel(g.Rel.Schema, []tuple.Tuple{row(want)})) {
			t.Errorf("group %d (P = %g): certain answer\n%s\nwant V = %d", gi, g.Prob, got, want)
		}
	}
}
