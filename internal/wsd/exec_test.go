package wsd

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
)

// refusalExamples holds one statement per row of the refusal table, over
// refusalWSD's relations.
var refusalExamples = map[string]string{
	"per-world":        "select sum(V) from I",
	"insert-uncertain": "insert into I values (0, 2)",
	"primary-key":      "create table X (K, primary key (K))",
	"create-view":      "create view X as select * from R",
	"isql-in-select":   "select K from I repair by key K",
	"split-combined":   "create table X as select * from I repair by key K assert exists (select * from R)",
	"split-source":     "create table X as select K from R group by K repair by key K",
	"isql-in-assert":   "assert exists (select K from I repair by key K)",
}

// refusalWSD is a certain relation R(K, V) and its repair I by key K: one
// component of two alternatives.
func refusalWSD(t *testing.T) *WSD {
	t.Helper()
	d := New(true)
	for _, sql := range []string{
		"create table R (K, V)",
		"insert into R values (0,0),(0,1)",
		"create table I as select * from R repair by key K",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	return d
}

// TestISQLOutsideTheHeadBlock: I-SQL in a subquery, in a UNION arm or in
// the GROUP WORLDS BY subquery fails on both engines with the same error,
// one message per case, and never with the planner's internal "engine must
// strip it".
func TestISQLOutsideTheHeadBlock(t *testing.T) {
	const (
		sub   = "plan error: I-SQL constructs are not allowed in subqueries"
		arm   = "plan error: I-SQL constructs are not allowed in UNION arms"
		group = "group worlds by subquery must be plain SQL"
	)
	for _, tc := range []struct{ sql, want string }{
		{"select K from R where exists (select possible V from I)", sub},
		{"select possible K from I where V in (select conf from I)", sub},
		{"update R set V = 1 where exists (select certain V from I)", sub},
		{"delete from R where K in (select possible K from I)", sub},
		{"create table X as select K from R where exists (select possible V from I)", sub},
		{"select possible K from I union select possible K from R", arm},
		{"select K from R union select possible K from R", arm},
		{"select possible K from R group worlds by (select V from R where exists (select conf from R))", group},
	} {
		d := refusalWSD(t)
		s := expandSession(t, d)
		_, cerr := d.Exec(tc.sql)
		_, nerr := s.Exec(tc.sql)
		if cerr == nil || nerr == nil || cerr.Error() != tc.want || nerr.Error() != tc.want {
			t.Errorf("%q: compact %v, naive %v; want %q on both", tc.sql, cerr, nerr, tc.want)
		}
	}
}

// TestRefusalTable runs every row's example: the error wraps ErrUnsupported
// with the row's text (the per-world row's text is followed by the uncertain
// relations route names), the trace says route=refused and names the row,
// the decomposition is left as it was, and the naive engine runs the
// statement (all but the standalone ASSERT, a compact-only statement).
func TestRefusalTable(t *testing.T) {
	for i := range refusals {
		r := &refusals[i]
		t.Run(r.name, func(t *testing.T) {
			sql, ok := refusalExamples[r.name]
			if !ok {
				t.Fatalf("refusal row %q has no example statement", r.name)
			}
			d := refusalWSD(t)
			before := []any{d.WorldCount().String(), d.ComponentCount(), d.AlternativeCount(), d.String()}
			tr := obs.NewTrace(sql)
			_, err := core.ExecTraced(d, sql, nil, tr)
			if !errors.Is(err, ErrUnsupported) {
				t.Fatalf("%q: error %v does not wrap ErrUnsupported", sql, err)
			}
			text := strings.ReplaceAll(regexp.QuoteMeta(r.text), "%s", ".+")
			tail := "$"
			if r.detect == nil {
				tail = ""
			}
			if !regexp.MustCompile("^" + regexp.QuoteMeta(ErrUnsupported.Error()+": ") + text + tail).MatchString(err.Error()) {
				t.Errorf("%q: error %q does not carry the row's text %q", sql, err, r.text)
			}
			attrs := map[string]string{}
			for _, a := range tr.JSON().Attrs {
				attrs[a.Key] = a.Value
			}
			if attrs["route"] != "refused" || attrs["refusal"] != r.name {
				t.Errorf("%q: trace route=%q refusal=%q, want refused and %q", sql, attrs["route"], attrs["refusal"], r.name)
			}
			after := []any{d.WorldCount().String(), d.ComponentCount(), d.AlternativeCount(), d.String()}
			for j := range before {
				if before[j] != after[j] {
					t.Errorf("%q changed the decomposition: %v -> %v", sql, before[j], after[j])
				}
			}
			if r.name == "isql-in-assert" {
				return
			}
			if _, err := expandSession(t, d).Exec(sql); err != nil {
				t.Errorf("naive engine on %q: %v", sql, err)
			}
		})
	}
}

// TestSchemaFingerprintFollowsSchemaChanges: the fingerprint keying the
// shared plan cache is computed once per change of the schemas, and every
// change retires it — so a plan compiled before DROP and a re-CREATE with
// other columns is not reused for the new relation: the statement compiles
// anew and reads the new column. A snapshot restore brings the old schemas,
// the old fingerprint and the old answer back.
func TestSchemaFingerprintFollowsSchemaChanges(t *testing.T) {
	d := New(true)
	for _, sql := range []string{
		"create table FpT (K, V)",
		"insert into FpT values (1, 10)",
		"create table FpI as select * from FpT repair by key K",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	const q = "select possible V from FpT"
	answer := func() string {
		t.Helper()
		return renderRel(closed(t, d, q))
	}
	before, fp := answer(), d.SchemaFingerprint()
	if again := answer(); again != before || d.SchemaFingerprint() != fp {
		t.Fatalf("a read changed the answer or the fingerprint: %s", again)
	}
	restore := d.Snapshot()
	for _, sql := range []string{
		"drop table FpT",
		"create table FpT (K, W, V)",
		"insert into FpT values (1, 5, 20)",
	} {
		if _, err := d.Exec(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	if d.SchemaFingerprint() == fp {
		t.Fatal("the fingerprint survived DROP and a CREATE with other columns")
	}
	_, misses := d.PlanCacheCounts()
	got := closed(t, d, q)
	if _, after := d.PlanCacheCounts(); after != misses+1 {
		t.Errorf("%q over the re-created FpT: %d plan compilations, want 1", q, after-misses)
	}
	if got.Len() != 1 || got.Rows()[0][0].AsInt() != 20 {
		t.Errorf("%q over the re-created FpT answered\n%s\nwant V = 20", q, renderRel(got))
	}
	restore()
	if d.SchemaFingerprint() != fp || answer() != before {
		t.Errorf("after the restore: fingerprint kept %t, answer\n%s\nwant\n%s", d.SchemaFingerprint() == fp, answer(), before)
	}

	// Each writer of the schemas drops the cached fingerprint, so the next
	// read hashes the new catalog; a write of tuples keeps it.
	fresh := func() uint64 {
		cached := d.fingerprint
		d.fingerprint = nil
		defer func() { d.fingerprint = cached }()
		return d.SchemaFingerprint()
	}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"PutCertain", func() error { return d.PutCertain("FpA", relation.New(schema.New("A", "B"))) }},
		{"registerUncertain", func() error { return d.registerUncertain("FpB", schema.New("A")) }},
		{"projectOutTrailing", func() error { d.projectOutTrailing("FpA", 1); return nil }},
		{"drop", func() error { return d.drop("FpB") }},
	} {
		d.SchemaFingerprint()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if d.SchemaFingerprint() != fresh() {
			t.Errorf("%s changed the schemas and kept the old fingerprint", w.name)
		}
	}
	kept := d.SchemaFingerprint()
	cached := d.fingerprint
	if _, err := d.Exec("insert into FpA values (1)"); err != nil {
		t.Fatal(err)
	}
	if d.fingerprint != cached || d.SchemaFingerprint() != kept {
		t.Error("an INSERT, which changes no schema, dropped the fingerprint")
	}
}
