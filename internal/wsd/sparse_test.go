package wsd

import (
	"math"
	"strings"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// sparseShape is a decomposition of at most 10 components and statements
// each of whose answers lies in 1 to 3 of them: the closures, the
// conditional relation and the componentwise store visit those components'
// trees only (fold.go, componentwise.go).
type sparseShape struct {
	name string
	open func(t *testing.T) *WSD
	// cores are plain SELECTs; each runs as POSSIBLE, CERTAIN and CONF, as
	// a conditional relation and as a CREATE TABLE AS store.
	cores []string
	// grouped are GROUP WORLDS BY statements.
	grouped []string
}

func sparseShapes() []sparseShape {
	return []sparseShape{{
		// Eight flat two-alternative components and a certain key 8.
		name: "flat",
		open: func(t *testing.T) *WSD {
			d := New(true)
			r := relation.New(schema.New("K", "V", "W"))
			for k := 0; k < 8; k++ {
				r.MustAppend(row(k, 10*k, 1))
				r.MustAppend(row(k, 10*k+1, 2))
			}
			r.MustAppend(row(8, 80, 1))
			ch := relation.New(schema.New("T", "X"))
			ch.MustAppend(row(0, 0))
			ch.MustAppend(row(1, 10))
			for _, step := range []error{
				d.PutCertain("R", r),
				d.repairByKey("R", "I", []string{"K"}, "W"),
				d.PutCertain("Ch", ch),
				d.choiceOf("Ch", "Pick", []string{"T"}, ""),
			} {
				if step != nil {
					t.Fatal(step)
				}
			}
			return d
		},
		cores: []string{
			"select K, V from I where K = 2",
			"select K, V from I where K >= 3 and K < 6",
			"select K, V from I where K = 1 or K = 8",
			"select V from I where V = 21 or V = 50",
			"select K from I where V = 61",
		},
		grouped: []string{
			"select possible K, V from I where K = 2 group worlds by (select T from Pick)",
			"select conf, K from I where K = 4 or K = 6 group worlds by (select X from Pick)",
			"select possible V from I where K = 2 group worlds by (select V from I where K = 2)",
			"select conf, V from I where K = 2 group worlds by (select V from I where K = 5)",
		},
	}, {
		// P chooses a key group K; Q chooses a V among the chosen rows, one
		// child of P per alternative; L repairs what Q leaves by V,
		// grandchildren under Q's alternatives.
		name: "nested",
		open: func(t *testing.T) *WSD {
			d := New(true)
			r := relation.New(schema.New("K", "V", "W"))
			for _, tp := range [][]any{{0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {1, 2, 1}, {1, 2, 3}, {1, 3, 2}} {
				r.MustAppend(row(tp...))
			}
			for _, step := range []error{
				d.PutCertain("R", r),
				d.choiceOf("R", "P", []string{"K"}, ""),
				d.choiceOf("P", "Q", []string{"V"}, "W"),
				d.repairByKey("Q", "L", []string{"V"}, "W"),
			} {
				if step != nil {
					t.Fatal(step)
				}
			}
			return d
		},
		cores: []string{
			// A child under an untouched root: P holds none of Q's rows.
			"select K, V from Q where V = 2",
			"select K, V, W from L where V = 0",
			"select V from Q where V = 1 or V = 3",
			"select K from P where K = 1",
		},
		grouped: []string{
			"select possible K, V from Q where V = 2 group worlds by (select K from P)",
			"select conf, V from L where V = 2 group worlds by (select V from Q where V = 3)",
		},
	}, {
		// nestedScriptWSD's shape, smaller: a flat repair U beside a repair
		// U2 with a repair N chained on it, and a choice Pick.
		name: "mixed",
		open: func(t *testing.T) *WSD {
			d := New(true)
			for _, sql := range []string{
				"create table Src (K, V, W)",
				"insert into Src values (0, 1, 1), (0, 2, 3), (1, 3, 1)",
				"create table U as select K, V from Src repair by key K weight W",
				"create table Src2 (K, V, W)",
				"insert into Src2 values (0, 10, 1), (0, 11, 2), (1, 12, 1)",
				"create table U2 as select K, V from Src2 repair by key K weight W",
				"create table N as select K, V from U2 repair by key K",
				"create table Ch (T, X)",
				"insert into Ch values (0, 0), (1, 10)",
				"create table Pick as select T, X from Ch choice of T",
			} {
				if _, err := d.Exec(sql); err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
			}
			return d
		},
		cores: []string{
			// Children under a root none of whose alternatives hold a row.
			"select K, V from N where K = 0",
			"select K, V from U where K = 0",
			"select U.K, X from U, Ch where U.K = Ch.T and U.K = 1",
			"select K, V from N where K = 1 or V = 10",
		},
		grouped: []string{
			"select possible K, V from U where K = 0 group worlds by (select T from Pick)",
			"select conf, K, V from N where K = 0 group worlds by (select T from Pick)",
		},
	}}
}

// touched returns the components core's parts lie in, and how many are
// listed.
func touched(t *testing.T, d *WSD, core *sqlparse.SelectStmt) (comps map[int]bool, listed int) {
	t.Helper()
	an, ev := analyzed(t, d, core)
	listing := d.rootClosure(an.Comps)
	p, err := d.queryByComponent(listing, ev.part, nil)
	if err != nil {
		t.Fatal(err)
	}
	comps = map[int]bool{}
	for _, pt := range p.parts {
		comps[pt.ci] = true
	}
	return comps, len(listing)
}

// TestSparseTouch: over decompositions of at most 10 components, flat and
// nested — one case a touched child under a root none of whose
// alternatives hold an answer row — statements whose answers lie in 1 to 3
// components answer POSSIBLE, CERTAIN and CONF, the conditional relation,
// GROUP WORLDS BY and the componentwise CREATE TABLE AS store as the naive
// engine over Expand does, and their parts match the per-alternative
// oracle's for every listed (component, alternative).
func TestSparseTouch(t *testing.T) {
	t.Parallel()
	for _, sh := range sparseShapes() {
		d := sh.open(t)
		if n := len(d.comps); n > 10 {
			t.Fatalf("%s: %d components, want at most 10", sh.name, n)
		}
		naive := expandSession(t, d)
		for _, sql := range sh.cores {
			label := sh.name + " " + sql
			core := mustCore(t, sql)
			if comps, _ := touched(t, d, core); len(comps) < 1 || len(comps) > 3 {
				t.Fatalf("%s: touches %d components, want 1 to 3", label, len(comps))
			}
			checkTaggedParts(t, label, d, core)
			for _, quantifier := range []string{"possible ", "certain ", "conf, "} {
				q := strings.Replace(sql, "select ", "select "+quantifier, 1)
				got, err := d.Exec(q)
				if err != nil {
					t.Fatalf("%s: %q: %v", label, q, err)
				}
				want, err := naive.Exec(q)
				if err != nil {
					t.Fatalf("%s: naive %q: %v", label, q, err)
				}
				conf := quantifier == "conf, "
				if g, w := renderSet(t, got.First(), conf), renderSet(t, want.Groups[0].Rel, conf); g != w {
					t.Errorf("%s: %q:\n%s\nnaive over Expand:\n%s", label, q, g, w)
				}
			}
			checkConditionalQuery(t, label, d, sql)

			restore := d.Snapshot()
			ref := expandSession(t, d)
			if _, err := d.Exec("create table X as " + sql); err != nil {
				t.Fatalf("%s: store: %v", label, err)
			}
			if _, err := ref.Exec("create table X as " + sql); err != nil {
				t.Fatalf("%s: naive store: %v", label, err)
			}
			if merges := d.MergeCount(); merges != 0 {
				t.Errorf("%s: the store merged %d times", label, merges)
			}
			matchViews(t, naiveViews(t, ref, "X"), wsdViews(t, d, "X"))
			restore()
		}
		for _, sql := range sh.grouped {
			d := sh.open(t) // a spanning statement merges
			want, err := expandSession(t, d).Exec(sql)
			if err != nil {
				t.Fatalf("%s: naive %q: %v", sh.name, sql, err)
			}
			got, err := d.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", sh.name, sql, err)
			}
			if len(got.Groups) != len(want.Groups) {
				t.Fatalf("%s: %q: %d groups, want %d", sh.name, sql, len(got.Groups), len(want.Groups))
			}
			for gi := range got.Groups {
				g, w := got.Groups[gi], want.Groups[gi]
				conf := strings.Contains(sql, "conf")
				if math.Abs(g.Prob-w.Prob) > 1e-9 || renderSet(t, g.Rel, conf) != renderSet(t, w.Rel, conf) {
					t.Errorf("%s: %q group %d: prob %g\n%s\nwant prob %g\n%s", sh.name, sql, gi, g.Prob, renderSet(t, g.Rel, conf), w.Prob, renderSet(t, w.Rel, conf))
				}
			}
		}
	}
}

// TestSparseConfKeepsListedBits: the single-component confidence rule is
// keyed to the components listed, not to those holding the tuple. A CONF
// over I's nine listed components, exactly one of which holds the tuple, is
// 1 − (1 − p), as a fold over every listed component computed it — not the
// plain p a single listed component answers with, which differs in the last
// bit here.
func TestSparseConfKeepsListedBits(t *testing.T) {
	d := sparseShapes()[0].open(t)
	const sql = "select K, V, conf from I where K = 2 and V = 20"
	core := mustCore(t, "select K, V from I where K = 2 and V = 20")
	comps, listed := touched(t, d, core)
	if len(comps) != 1 || listed < 8 {
		t.Fatalf("fixture: %d components hold the tuple of %d listed, want 1 of 8 or more", len(comps), listed)
	}
	var p float64
	for ci := range comps {
		for _, alt := range d.comps[ci].Alts {
			if rel := alt.Contrib[key("I")]; rel.Len() == 1 && rel.Rows()[0][1].AsInt() == 20 {
				p = alt.Prob
			}
		}
	}
	want := 1 - (1 - p)
	if math.Float64bits(want) == math.Float64bits(p) {
		t.Fatalf("fixture: p = %v is its own 1 − (1 − p); pick another weight", p)
	}
	rel := closed(t, d, sql)
	if rel.Len() != 1 {
		t.Fatalf("%q: %d rows, want 1", sql, rel.Len())
	}
	if got := rel.Rows()[0][2].AsFloat(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%q: conf %v (%#x), want 1 − (1 − %v) = %v (%#x)", sql, got, math.Float64bits(got), p, want, math.Float64bits(want))
	}
}

// TestSplitRefusesUnlistedComponent: a delta row whose component the
// evaluation did not list is an error, not a part of some other component.
func TestSplitRefusesUnlistedComponent(t *testing.T) {
	d := sparseShapes()[0].open(t)
	an, ev := analyzed(t, d, mustCore(t, "select K, V from I where K = 2 or K = 5"))
	p, err := d.queryByComponent(an.Comps, ev.part, nil)
	if err != nil || len(p.parts) == 0 {
		t.Fatalf("fixture: %v, %d parts", err, len(p.parts))
	}
	skip := p.parts[len(p.parts)-1].ci
	var listing []int
	for _, ci := range an.Comps {
		if ci != skip {
			listing = append(listing, ci)
		}
	}
	if _, err := d.queryByComponent(listing, ev.part, nil); err == nil || !strings.Contains(err.Error(), "not listed") {
		t.Errorf("a listing without component %d: err = %v, want it not listed", skip, err)
	}
}
