package core

// scenario_test.go reproduces the two demonstration scenarios of Section 3:
// whale tracking (Figures 3 and 4) and data cleaning by constraints and
// queries (Figures 5, 6 and 7).

import (
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// loadWhales builds the six-world relation I of Figure 3 via choice-of on a
// staging table keyed by world id, then drops the staging table.
func loadWhales(t *testing.T, s *Session) {
	t.Helper()
	script := `
		create table W (WID, Id, Species, Gender, Pos);
		insert into W values
			('A', 1, 'sperm', 'calf', 'b'), ('A', 2, 'sperm', 'cow', 'c'), ('A', 3, 'orca', 'cow', 'a'),
			('B', 1, 'sperm', 'calf', 'b'), ('B', 2, 'sperm', 'cow', 'c'), ('B', 3, 'orca', 'bull', 'a'),
			('C', 1, 'sperm', 'calf', 'b'), ('C', 2, 'sperm', 'bull', 'c'), ('C', 3, 'orca', 'cow', 'a'),
			('D', 1, 'sperm', 'calf', 'b'), ('D', 2, 'sperm', 'bull', 'c'), ('D', 3, 'orca', 'bull', 'a'),
			('E', 1, 'sperm', 'calf', 'c'), ('E', 2, 'sperm', 'cow', 'b'), ('E', 3, 'orca', 'cow', 'a'),
			('F', 1, 'sperm', 'calf', 'c'), ('F', 2, 'sperm', 'bull', 'b'), ('F', 3, 'orca', 'cow', 'a');
		create table I as select Id, Species, Gender, Pos from W choice of WID;
	`
	if _, err := ExecScript(s, script); err != nil {
		t.Fatalf("loading figure 3: %v", err)
	}
	if s.WorldCount() != 6 {
		t.Fatalf("whale worlds = %d, want 6", s.WorldCount())
	}
}

func TestFigure3Load(t *testing.T) {
	s := NewSession(false)
	loadWhales(t, s)
	for _, w := range s.Set().Worlds {
		rel, err := w.Lookup("I")
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 3 {
			t.Errorf("world %s has %d whales", w.Name, rel.Len())
		}
		if rel.Schema.Len() != 4 {
			t.Errorf("I schema = %s", rel.Schema)
		}
	}
}

func TestWhaleAttackQuery(t *testing.T) {
	s := NewSession(false)
	loadWhales(t, s)

	// "Is there a possibility that the adult orca attacks the calf?"
	res, err := s.Exec("select possible 'yes' from I where Id=1 and Pos='b';")
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Groups[0].Rel
	if rel.Len() != 1 || rel.Rows()[0][0].AsStr() != "yes" {
		t.Errorf("attack possibility = %v, want {(yes)}", rel.Rows())
	}
}

func TestWhaleValidView(t *testing.T) {
	s := NewSession(false)
	loadWhales(t, s)

	// As a query, the assert answers in world E alone and keeps all six.
	res, err := s.Exec(`select * from I assert exists
		(select * from I where Gender='cow' and Pos='b');`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorld) != 1 || res.PerWorld[0].Rel.Len() != 3 || s.WorldCount() != 6 {
		t.Fatalf("assert query: %d answers, %d worlds left; want 1 answer of 3 whales, 6 worlds", len(res.PerWorld), s.WorldCount())
	}

	// The assert-view keeps only world E (a sperm cow at position b).
	if _, err := s.Exec(`create view Valid as
		select * from I assert exists
		(select * from I where Gender='cow' and Pos='b');`); err != nil {
		t.Fatal(err)
	}
	if s.WorldCount() != 1 {
		t.Fatalf("worlds after Valid = %d, want 1 (world E)", s.WorldCount())
	}
	if !s.IsView("Valid") {
		t.Error("Valid should be recorded as a view")
	}
	valid, err := s.Set().Worlds[0].Lookup("Valid")
	if err != nil {
		t.Fatal(err)
	}
	// World E: calf at c, cow at b, orca cow at a.
	if valid.Len() != 3 {
		t.Fatalf("Valid = %v", valid.Rows())
	}
	// Q on Valid returns the empty answer: the calf is not at b in E.
	res, err = s.Exec("select possible 'yes' from Valid where Id=1 and Pos='b';")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Rel.Empty() {
		t.Errorf("attack on Valid = %v, want empty", res.Groups[0].Rel.Rows())
	}
	// select certain * from Valid = I_E (all three tuples).
	res, err = s.Exec("select certain * from Valid;")
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Rel.Len() != 3 {
		t.Errorf("certain Valid = %v", res.Groups[0].Rel.Rows())
	}
}

func TestWhaleValidPrimeView(t *testing.T) {
	s := NewSession(false)
	loadWhales(t, s)

	// As a query, the condition answers in all six worlds, non-empty in E.
	res, err := s.Exec(`select * from I where exists
		(select * from I where Gender='cow' and Pos='b');`)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, wr := range res.PerWorld {
		if !wr.Rel.Empty() {
			answered++
		}
	}
	if len(res.PerWorld) != 6 || answered != 1 {
		t.Fatalf("where-exists query: %d answers, %d non-empty; want 6 and 1", len(res.PerWorld), answered)
	}

	// Valid' keeps all six worlds; the relation is empty outside E.
	if _, err := s.Exec(`create view ValidP as
		select * from I where exists
		(select * from I where Gender='cow' and Pos='b');`); err != nil {
		t.Fatal(err)
	}
	if s.WorldCount() != 6 {
		t.Fatalf("worlds after Valid' = %d, want 6", s.WorldCount())
	}
	nonEmpty := 0
	for _, w := range s.Set().Worlds {
		rel, err := w.Lookup("ValidP")
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Empty() {
			nonEmpty++
			if rel.Len() != 3 {
				t.Errorf("world %s Valid' = %v", w.Name, rel.Rows())
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("Valid' non-empty in %d worlds, want 1 (world E)", nonEmpty)
	}

	// Q has the same (empty) answer on Valid' as on Valid...
	res, err = s.Exec("select possible 'yes' from ValidP where Id=1 and Pos='b';")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Rel.Empty() {
		t.Errorf("attack on Valid' = %v", res.Groups[0].Rel.Rows())
	}
	// ...but certain * differs: empty on Valid' (vs I_E on Valid).
	res, err = s.Exec("select certain * from ValidP;")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Groups[0].Rel.Empty() {
		t.Errorf("certain Valid' = %v, want empty", res.Groups[0].Rel.Rows())
	}
}

func TestFigure4GroupWorldsBy(t *testing.T) {
	s := NewSession(false)
	loadWhales(t, s)

	groupsQuery := `select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3
		where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2);`
	// As a query: one closed answer per world group — worlds A–D (Id 2 at
	// c), then E–F (Id 2 at b).
	res, err := s.Exec(groupsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || len(res.Groups[0].Worlds) != 4 || len(res.Groups[1].Worlds) != 2 ||
		res.Groups[0].Rel.Len() != 4 || res.Groups[1].Rel.Len() != 2 {
		t.Fatalf("group worlds by query = %+v, want groups of 4 and 2 worlds with 4 and 2 pairs", res.Groups)
	}

	if _, err := s.Exec("create table Groups as " + groupsQuery); err != nil {
		t.Fatal(err)
	}
	if s.WorldCount() != 6 {
		t.Fatalf("worlds = %d", s.WorldCount())
	}

	// Figure 4: in worlds A–D (Id-2 at c) Groups has all four gender
	// combinations; in E–F (Id-2 at b) it has {(cow,cow),(bull,cow)}.
	wantBig := relation.New(schema.New("G2", "G3"))
	for _, pair := range [][2]string{{"cow", "cow"}, {"cow", "bull"}, {"bull", "cow"}, {"bull", "bull"}} {
		wantBig.MustAppend(tuple.New(value.Str(pair[0]), value.Str(pair[1])))
	}
	wantSmall := relation.New(schema.New("G2", "G3"))
	for _, pair := range [][2]string{{"cow", "cow"}, {"bull", "cow"}} {
		wantSmall.MustAppend(tuple.New(value.Str(pair[0]), value.Str(pair[1])))
	}

	big, small := 0, 0
	for _, w := range s.Set().Worlds {
		groups, err := w.Lookup("Groups")
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case groups.EqualSet(wantBig):
			big++
		case groups.EqualSet(wantSmall):
			small++
		default:
			t.Errorf("world %s has unexpected Groups:\n%s", w.Name, groups)
		}
	}
	if big != 4 || small != 2 {
		t.Errorf("Groups instances: %d big, %d small; want 4 and 2", big, small)
	}
}

func TestWhaleIndependenceCheck(t *testing.T) {
	// "Groups = πG2(Groups) × πG3(Groups)" holds in every world: the
	// genders of the two adult whales are independent.
	s := NewSession(false)
	loadWhales(t, s)
	if _, err := s.Exec(`create table Groups as
		select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3
		where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2);`); err != nil {
		t.Fatal(err)
	}
	// The product check expressed in standard SQL, evaluated per world: no
	// (g2, g3) combination from the projections is missing from Groups.
	res, err := s.Exec(`select * from Groups g1, Groups g2
		where not exists (select * from Groups g3
			where g3.G2 = g1.G2 and g3.G3 = g2.G3);`)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range res.PerWorld {
		if !wr.Rel.Empty() {
			t.Errorf("world %s: independence violated: %v", wr.World, wr.Rel.Rows())
		}
	}
}

// ---- Section 3.2: data cleaning ----

// loadCleaning builds Figure 5: R and the swap-closure S.
func loadCleaning(t *testing.T, s *Session) {
	t.Helper()
	script := `
		create table R (SSN, TEL);
		insert into R values (123, 456), (789, 123);
		create table S as
			select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union
			select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R;
	`
	if _, err := ExecScript(s, script); err != nil {
		t.Fatalf("loading figure 5: %v", err)
	}
}

func TestFigure5SwapClosure(t *testing.T) {
	s := NewSession(false)
	loadCleaning(t, s)
	rel, err := s.Set().Worlds[0].Lookup("S")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("S = %v", rel.Rows())
	}
	want := relation.New(schema.New("SSN", "TEL", "SSN'", "TEL'"))
	for _, row := range [][4]int64{
		{123, 456, 123, 456},
		{123, 456, 456, 123},
		{789, 123, 789, 123},
		{789, 123, 123, 789},
	} {
		want.MustAppend(tuple.New(value.Int(row[0]), value.Int(row[1]), value.Int(row[2]), value.Int(row[3])))
	}
	if !rel.EqualSet(want) {
		t.Errorf("S mismatch:\n%s", rel)
	}
}

func TestFigure6RepairReadings(t *testing.T) {
	s := NewSession(false)
	loadCleaning(t, s)
	res, err := s.Exec(`select "SSN'", "TEL'" from S repair by key SSN, TEL;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorld) != 4 || s.WorldCount() != 1 {
		t.Fatalf("repair query: %d answers, %d worlds left; want 4 and 1", len(res.PerWorld), s.WorldCount())
	}
	if _, err := s.Exec(`create table T as
		select "SSN'", "TEL'" from S repair by key SSN, TEL;`); err != nil {
		t.Fatal(err)
	}
	// Figure 6: four possible readings.
	if s.WorldCount() != 4 {
		t.Fatalf("worlds = %d, want 4", s.WorldCount())
	}
	wants := make([]*relation.Relation, 4)
	for i, rows := range [][][2]int64{
		{{123, 456}, {789, 123}}, // T_A
		{{123, 456}, {123, 789}}, // T_B
		{{456, 123}, {789, 123}}, // T_C
		{{456, 123}, {123, 789}}, // T_D
	} {
		w := relation.New(schema.New("SSN'", "TEL'"))
		for _, row := range rows {
			w.MustAppend(tuple.New(value.Int(row[0]), value.Int(row[1])))
		}
		wants[i] = w
	}
	matched := make([]bool, 4)
	for _, w := range s.Set().Worlds {
		rel, err := w.Lookup("T")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for i, want := range wants {
			if rel.EqualSet(want) {
				matched[i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("world %s has unexpected T:\n%s", w.Name, rel)
		}
	}
	for i, ok := range matched {
		if !ok {
			t.Errorf("reading T_%c missing", 'A'+i)
		}
	}
}

func TestFigure7FDAssert(t *testing.T) {
	s := NewSession(false)
	loadCleaning(t, s)
	if _, err := s.Exec(`create table T as
		select "SSN'", "TEL'" from S repair by key SSN, TEL;`); err != nil {
		t.Fatal(err)
	}
	fdAssert := `select * from T assert not exists
		(select 'yes' from T t1, T t2
		 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'");`
	res, err := s.Exec(fdAssert)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorld) != 3 || s.WorldCount() != 4 {
		t.Fatalf("FD assert query: %d answers, %d worlds left; want 3 and 4", len(res.PerWorld), s.WorldCount())
	}
	if _, err := s.Exec("create table U as " + fdAssert); err != nil {
		t.Fatal(err)
	}
	// Figure 7: world B violates SSN' → TEL' and is dropped.
	if s.WorldCount() != 3 {
		t.Fatalf("worlds after FD assert = %d, want 3", s.WorldCount())
	}
	badB := relation.New(schema.New("SSN'", "TEL'"))
	badB.MustAppend(tuple.New(value.Int(123), value.Int(456)))
	badB.MustAppend(tuple.New(value.Int(123), value.Int(789)))
	for _, w := range s.Set().Worlds {
		u, err := w.Lookup("U")
		if err != nil {
			t.Fatal(err)
		}
		tt, _ := w.Lookup("T")
		if !u.EqualSet(tt) {
			t.Errorf("world %s: U != T", w.Name)
		}
		if u.EqualSet(badB) {
			t.Errorf("world %s is the FD-violating reading and should be gone", w.Name)
		}
	}
}
