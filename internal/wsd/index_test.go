package wsd

import (
	"slices"
	"strings"
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
)

// nestedScriptWSD builds the shape of a decomposition with many flat
// components beside one nested chain: a flat repair U, a repair U2 with a
// repair N chained on it, and a choice Pick.
func nestedScriptWSD(t *testing.T) *WSD {
	t.Helper()
	d := New(true)
	for _, sql := range []string{
		"create table Src (K, V, W)",
		"insert into Src values (0, 1, 1), (0, 2, 3), (1, 3, 1), (1, 4, 1), (2, 5, 1), (3, 6, 2), (3, 7, 1)",
		"create table U as select K, V from Src repair by key K weight W",
		"create table Src2 (K, V, W)",
		"insert into Src2 values (0, 10, 1), (0, 11, 2), (1, 12, 1), (1, 13, 1), (2, 14, 1)",
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
	if nestedCount(d) == 0 {
		t.Fatal("fixture: no nested component")
	}
	return d
}

// nestedCount counts the components with a parent edge.
func nestedCount(d *WSD) int {
	n := 0
	for _, c := range d.comps {
		if c.Parent >= 0 {
			n++
		}
	}
	return n
}

// answers runs a read-only script and renders every answer.
func answers(t *testing.T, d *WSD, script []string) string {
	t.Helper()
	var b strings.Builder
	for _, sql := range script {
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		b.WriteString(sql + "\n" + res.String())
		if rel := res.First(); rel != nil {
			b.WriteString(rel.StoredString())
		}
	}
	return b.String()
}

var readOnlyScript = []string{
	"select possible V from U where K = 0",
	"select certain K from U",
	"select K, conf from U where V > 1",
	"select K, V, conf from N",
	"select possible V from N where K = 1",
	"select K, V from U where K = 3",
	"select K, V from N",
	"select K, approx conf from U",
	"select possible K from U where V > 2 group worlds by (select T from Pick)",
	"explain select possible V from N",
}

// TestIndexBuiltOncePerChange: a read-only script over a nested decomposition
// reads one index, whatever it asks — the one its first statement found or
// built — and running it again builds none; a change of the component list
// (an UPDATE's rewrite) retires that index, and the script after it reads a
// new one, with the answers of the list it indexes. A snapshot restore puts
// back the index saved with the list, and nothing rebuilds it.
func TestIndexBuiltOncePerChange(t *testing.T) {
	d := nestedScriptWSD(t)
	merges := d.MergeCount()
	run := func(label string) (string, *index) {
		t.Helper()
		out := answers(t, d, readOnlyScript[:1])
		ix := d.ix
		out += answers(t, d, readOnlyScript[1:])
		if d.ix != ix {
			t.Errorf("%s: the index was rebuilt during a read-only script", label)
		}
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return out, ix
	}
	before, ix := run("first run")
	if again, ix2 := run("second run"); ix2 != ix || again != before {
		t.Errorf("the second run built a new index (%t) or answered\n%s\nwant\n%s", ix2 != ix, again, before)
	}
	if d.MergeCount() != merges {
		t.Fatalf("fixture: the read-only script merged components")
	}

	restore := d.Snapshot()
	if _, err := d.Exec("update U set V = V + 100 where K = 0"); err != nil {
		t.Fatal(err)
	}
	changed, ix3 := run("after an UPDATE")
	if changed == before || ix3 == ix {
		t.Fatalf("the UPDATE changed no answer (%t) or kept the index (%t)", changed == before, ix3 == ix)
	}
	restore()
	got, ix4 := run("after a snapshot restore")
	if got != before || ix4 != ix {
		t.Errorf("after the restore the saved index was rebuilt (%t) or the script answered\n%s\nwant\n%s", ix4 != ix, got, before)
	}
}

// TestCheckInvariantCatchesStaleIndex: a write into a published component
// that bypasses own, or a write of the component list that bypasses
// editList, leaves the index and its stored deltas describing data that is
// no longer there, and CheckInvariant says so.
func TestCheckInvariantCatchesStaleIndex(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(d *WSD)
	}{
		{"a contribution to a new relation", func(d *WSD) {
			d.schemas["x"] = schema.New("K", "V")
			d.comps[0].Alts[0].Contrib["x"] = d.comps[0].Alts[0].Contrib["u"]
		}},
		{"a contribution's rows", func(d *WSD) {
			rel := relation.New(d.schemas["u"])
			rel.MustAppend(row(0, 99))
			d.comps[0].Alts[0].Contrib["u"] = rel
		}},
		{"the component list's order", func(d *WSD) {
			d.comps[0], d.comps[1] = d.comps[1], d.comps[0]
		}},
	} {
		d := nestedScriptWSD(t)
		answers(t, d, readOnlyScript[:1])
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s: before the write: %v", c.name, err)
		}
		c.write(d)
		if err := d.CheckInvariant(); err == nil || !strings.Contains(err.Error(), "stale decomposition index") {
			t.Errorf("%s written in place: CheckInvariant = %v, want a stale index", c.name, err)
		}
	}
}

// TestComponentsForIsClipped: appending to what componentsFor hands out never
// writes into the index.
func TestComponentsForIsClipped(t *testing.T) {
	d := nestedScriptWSD(t)
	u := d.componentsFor("U")
	n := d.componentsFor("N")
	if len(u) == 0 || len(n) == 0 {
		t.Fatal("fixture: U or N has no components")
	}
	want := slices.Clone(n)
	_ = append(u, -1)
	if got := d.componentsFor("N"); !slices.Equal(got, want) {
		t.Errorf("componentsFor(N) = %v after an append to componentsFor(U), want %v", got, want)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
