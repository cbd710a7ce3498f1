package maybms

// bench_test.go regenerates every evaluation artifact of the paper as a
// benchmark (one per figure and worked example; see the per-experiment
// index in DESIGN.md) plus the scaling experiments substantiating the
// companion papers' representation claims: naive enumeration vs world-set
// decompositions. Run with
//
//	go test -bench=. -benchmem .
//
// The absolute numbers are of course not the paper's PostgreSQL testbed;
// the *shapes* are what they record: WSD repair is linear where
// enumeration is exponential, and WSD confidence needs no enumeration.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"maybms/internal/relation"
)

const figure1SQL = `
	create table R (A, B, C, D);
	insert into R values
		('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
		('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
		('a3', 20, 'c5', 6);
	create table S (C, E);
	insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2');
`

func figure1DB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		b.Fatal(err)
	}
	return db
}

func figure2DB(b *testing.B) *DB {
	b.Helper()
	db := figure1DB(b)
	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)
	return db
}

func BenchmarkFigure1Load(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := Open()
		if _, err := db.ExecScript(figure1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2RepairByKey(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select A, B, C from R repair by key A weight D`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 4 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkExample21Select(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from I where A = 'a3'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample22CreateTable(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("D%d", i)
		if _, err := db.Exec(`create table ` + name + ` as select * from I where A = 'a3'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample25Assert(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I assert not exists(select * from I where C = 'c1')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 2 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkExample26ChoiceOf(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from S choice of E`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample27ChoiceWeight(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from R choice of A weight D`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample28PossibleSum(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select possible sum(B) from I`)
		if err != nil {
			b.Fatal(err)
		}
		if res.First().Len() != 4 {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkExample29Certain(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select certain E from S choice of C`)
		if err != nil {
			b.Fatal(err)
		}
		if res.First().Len() != 1 {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkExample210Conf(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select conf from I where 50 > (select sum(B) from I)`); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Section 3.1: whales ----

const whaleSQL = `
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

func whaleDB(b *testing.B) *DB {
	b.Helper()
	db := OpenIncomplete()
	if _, err := db.ExecScript(whaleSQL); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkWhaleLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		whaleDB(b)
	}
}

func BenchmarkWhaleAttackQuery(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select possible 'yes' from I where Id=1 and Pos='b'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhaleValidView(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I assert exists
			(select * from I where Gender='cow' and Pos='b')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 1 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkWhaleValidPrimeView(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I where exists
			(select * from I where Gender='cow' and Pos='b')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 6 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkWhaleCertain(b *testing.B) {
	db := whaleDB(b)
	db.MustExec(`create view ValidP as select * from I where exists
		(select * from I where Gender='cow' and Pos='b')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select certain * from ValidP`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4GroupWorldsBy(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select possible i2.Gender as G2, i3.Gender as G3
			from I i2, I i3 where i2.Id = 2 and i3.Id = 3
			group worlds by (select Pos from I where Id = 2)`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) != 2 {
			b.Fatal("wrong group count")
		}
	}
}

func BenchmarkWhaleIndependenceCheck(b *testing.B) {
	db := whaleDB(b)
	db.MustExec(`create table Groups as
		select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3 where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from Groups g1, Groups g2
			where not exists (select * from Groups g3
				where g3.G2 = g1.G2 and g3.G3 = g2.G3)`); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Section 3.2: data cleaning ----

func cleaningDB(b *testing.B) *DB {
	b.Helper()
	db := OpenIncomplete()
	if _, err := db.ExecScript(`
		create table R (SSN, TEL);
		insert into R values (123, 456), (789, 123);
		create table S as
			select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union
			select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R;
	`); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkFigure5Union(b *testing.B) {
	db := OpenIncomplete()
	db.MustExec(`create table R (SSN, TEL)`)
	db.MustExec(`insert into R values (123, 456), (789, 123)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Repair(b *testing.B) {
	db := cleaningDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select "SSN'", "TEL'" from S repair by key SSN, TEL`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 4 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkFigure7FDAssert(b *testing.B) {
	db := cleaningDB(b)
	db.MustExec(`create table T as select "SSN'", "TEL'" from S repair by key SSN, TEL`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from T assert not exists
			(select 'yes' from T t1, T t2
			 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'")`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 3 {
			b.Fatal("wrong world count")
		}
	}
}

// ---- scaling: naive enumeration vs WSD (refs [1,3,4]) ----

// dirtyRows builds n key groups with 2 candidate tuples each: 2^n repairs.
func dirtyRows(n int) [][]any {
	rows := make([][]any, 0, 2*n)
	for k := 0; k < n; k++ {
		rows = append(rows, []any{k, 0, 1}, []any{k, 1, 3})
	}
	return rows
}

// BenchmarkScalingRepairNaive enumerates all 2^n repairs explicitly — the
// exponential baseline. Sizes are kept small; the point is the growth.
func BenchmarkScalingRepairNaive(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=%d", n, 1<<n), func(b *testing.B) {
			db := Open()
			db.SetMaxWorlds(1 << 14)
			if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`select K, V, W from Dirty repair by key K weight W`)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.PerWorld) != 1<<n {
					b.Fatal("wrong world count")
				}
			}
		})
	}
}

// BenchmarkScalingRepairWSD factorizes the same repairs — linear in n even
// far beyond any enumerable size.
func BenchmarkScalingRepairWSD(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12, 1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			rows := dirtyRows(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cdb := OpenCompact()
				if err := cdb.Register("Dirty", []string{"K", "V", "W"}, rows); err != nil {
					b.Fatal(err)
				}
				if _, err := cdb.Exec("create table Clean as select * from Dirty repair by key K weight W"); err != nil {
					b.Fatal(err)
				}
				if cdb.ComponentCount() != n {
					b.Fatal("wrong component count")
				}
			}
		})
	}
}

// BenchmarkScalingConfNaive computes a tuple confidence by world
// enumeration (conf query over 2^n worlds).
func BenchmarkScalingConfNaive(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=%d", n, 1<<n), func(b *testing.B) {
			db := Open()
			db.SetMaxWorlds(1 << 14)
			if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			db.MustExec(`create table Clean as select K, V, W from Dirty repair by key K weight W`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`select K, V, conf from Clean where K = 0`)
				if err != nil {
					b.Fatal(err)
				}
				if res.First().Len() != 2 {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}

// BenchmarkScalingConfWSD computes the same confidence exactly on the
// decomposition, without enumeration: one `select conf … where` statement
// through Exec, so it runs the statement runner and its instrumentation
// (scripts/check_trace_overhead.sh times it with metrics off and on).
func BenchmarkScalingConfWSD(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12, 1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			cdb := OpenCompact()
			if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			if _, err := cdb.Exec("create table Clean as select * from Dirty repair by key K weight W"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec("select conf from Clean where K = 0 and V = 1 and W = 3")
				if err != nil {
					b.Fatal(err)
				}
				if c := res.First().Rows()[0][0].AsFloat(); math.Abs(c-0.75) > 1e-9 {
					b.Fatal("wrong confidence")
				}
			}
		})
	}
}

// componentwiseDB builds a compact database with n two-alternative repair
// components (2^n worlds).
func componentwiseDB(b *testing.B, n int) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table Clean as select * from Dirty repair by key K weight W"); err != nil {
		b.Fatal(err)
	}
	return cdb
}

func benchComponentwiseSelect(b *testing.B, query string, sizes []int) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			cdb := componentwiseDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec(query)
				if err != nil {
					b.Fatal(err)
				}
				rel := res.First()
				if rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", rel.Len())
				}
			}
			b.StopTimer()
			if cdb.MergeCount() != 0 {
				b.Fatal("componentwise bench merged")
			}
		})
	}
}

// BenchmarkComponentwiseConf closes a CONF query over n independent
// components with two evaluations — certain-only plus one tagged delta of
// every alternative — and zero merges; cost scales with the sum of
// alternatives. groups=64 represents 2^64 worlds — far
// beyond what any merge could multiply out. (The merge-path halves of this
// pair, BenchmarkMergePath{Conf,Possible}, needed a switch to force the
// route; their numbers stay in BENCH_2026-07-30.json.)
func BenchmarkComponentwiseConf(b *testing.B) {
	benchComponentwiseSelect(b, `select conf, K, V from Clean`, []int{4, 8, 12, 64})
}

// BenchmarkComponentwisePossible: the same for the POSSIBLE closure.
func BenchmarkComponentwisePossible(b *testing.B) {
	benchComponentwiseSelect(b, `select possible K, V from Clean`, []int{4, 8, 12, 64})
}

// BenchmarkClosureComponents closes `select * from Clean` over n
// two-alternative components under each closure: the fold is linear in the
// part rows, so ×4 components must cost about ×4 — the per-tuple loop over
// every (component, alternative) it replaced made CONF and CERTAIN ×16 (at
// groups=16000 CONF took 6.83 s).
func BenchmarkClosureComponents(b *testing.B) {
	for _, q := range []struct {
		name, sql string
		rows      func(n int) int
	}{
		{"conf", `select *, conf from Clean`, func(n int) int { return 2 * n }},
		{"certain", `select certain * from Clean`, func(int) int { return 0 }},
		{"possible", `select possible * from Clean`, func(n int) int { return 2 * n }},
	} {
		for _, n := range []int{1000, 4000, 16000} {
			b.Run(fmt.Sprintf("%s/groups=%d", q.name, n), func(b *testing.B) {
				cdb := componentwiseDB(b, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cdb.Exec(q.sql)
					if err != nil {
						b.Fatal(err)
					}
					rel := res.First()
					if rel.Len() != q.rows(n) {
						b.Fatalf("wrong answer: %d rows", rel.Len())
					}
				}
			})
		}
	}
}

// BenchmarkStatementOverhead is what a statement pays for the size of the
// decomposition it runs over: `select possible V from U where K = 0` over n
// flat two-alternative repair components U beside one nested chain (a repair
// N chained on a repair U2), closure.compact's shape. The answer is one
// component's two rows. The decomposition's index (its ID positions,
// children, alternative numbering, tree facts, relation feeders and U's
// stored tagged delta) is built once, not per statement, and the split and
// fold after the evaluations visit the one touched component's parts, and
// the statement's Snapshot copies nothing; what still grows with n is the
// filter over U's stored delta and the index build that the first statement
// after a change pays.
func BenchmarkStatementOverhead(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("comps=%d", n), func(b *testing.B) {
			cdb := OpenCompact()
			if err := cdb.Register("Src", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			if err := cdb.Register("Src2", []string{"K", "V", "W"}, dirtyRows(8)); err != nil {
				b.Fatal(err)
			}
			for _, sql := range []string{
				"create table U as select K, V from Src repair by key K weight W",
				"create table U2 as select K, V from Src2 repair by key K weight W",
				"create table N as select K, V from U2 repair by key K, V",
			} {
				if _, err := cdb.Exec(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec("select possible V from U where K = 0")
				if err != nil {
					b.Fatal(err)
				}
				if rel := res.First(); rel.Len() != 2 {
					b.Fatalf("wrong answer: %d rows", rel.Len())
				}
			}
		})
	}
}

// naiveDirtyDB enumerates the n-component repair explicitly (2^n worlds)
// for the naive DML/grouping baselines, plus a two-way choice table P.
func naiveDirtyDB(b *testing.B, n int) *DB {
	b.Helper()
	db := Open()
	if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	db.MustExec("create table Clean as select K, V, W from Dirty repair by key K weight W")
	if err := db.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	db.MustExec("create table P as select A, B from C choice of A")
	return db
}

// compactDirtyDB is the same content as a decomposition: n repair
// components plus one choice component — 2^(n+1) worlds in linear space.
func compactDirtyDB(b *testing.B, n int) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table Clean as select * from Dirty repair by key K weight W"); err != nil {
		b.Fatal(err)
	}
	if err := cdb.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table P as select * from C choice of A"); err != nil {
		b.Fatal(err)
	}
	return cdb
}

// BenchmarkCompactUpdate rewrites an uncertain relation piece by piece —
// Σ alternatives work, zero merges, any number of components — where the
// naive counterpart must rewrite 2^n worlds.
func BenchmarkCompactUpdate(b *testing.B) {
	for _, n := range []int{4, 8, 12, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			cdb := compactDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdb.Exec("update Clean set V = V + 1 where V >= 0"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cdb.MergeCount() != 0 {
				b.Fatal("componentwise update merged")
			}
		})
	}
}

// BenchmarkNaiveUpdate is the enumerating baseline: the same statement in
// every explicit world.
func BenchmarkNaiveUpdate(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			db := naiveDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec("update Clean set V = V + 1 where V >= 0")
			}
		})
	}
}

// BenchmarkCompactGroupWorldsBy groups the world-set by a choice table's
// answer via the per-component fingerprint fold — no merge, no
// enumeration — where the naive counterpart fingerprints 2^n worlds.
func BenchmarkCompactGroupWorldsBy(b *testing.B) {
	for _, n := range []int{4, 8, 12, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			cdb := compactDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec("select possible K, V from Clean group worlds by (select B from P)")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups) != 2 {
					b.Fatal("wrong group count")
				}
			}
			b.StopTimer()
			if cdb.MergeCount() != 0 {
				b.Fatal("componentwise group worlds by merged")
			}
		})
	}
}

// BenchmarkNaiveGroupWorldsBy is the enumerating baseline for the same
// grouped closure.
func BenchmarkNaiveGroupWorldsBy(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			db := naiveDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec("select possible K, V from Clean group worlds by (select B from P)")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups) != 2 {
					b.Fatal("wrong group count")
				}
			}
		})
	}
}

// BenchmarkWorldCountMillion counts the worlds of a million-component WSD
// (the "10^10^6 worlds" headline of ref [1]): 2^(10^6) worlds.
func BenchmarkWorldCountMillion(b *testing.B) {
	n := 1_000_000
	cdb := OpenCompact()
	if err := cdb.Register("Huge", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table HugeR as select * from Huge repair by key K"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := cdb.WorldCount()
		if count.BitLen() != n+1 {
			b.Fatal("wrong world count")
		}
	}
}

// BenchmarkScalingAssertWSD measures the partial-expansion assert: only
// the touched component is filtered, regardless of how many components
// exist.
func BenchmarkScalingAssertWSD(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := OpenCompact()
				if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
					b.Fatal(err)
				}
				// One component per key: touch only key 0's data via a
				// dedicated relation so the merge involves one component.
				if _, err := cdb.Exec("create table Clean as select * from Dirty repair by key K weight W"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				// The assert touches relation Clean — all components — so
				// it must be rejected quickly (guard path), demonstrating
				// the bounded-merge contract.
				_, err := cdb.Exec("assert exists (select * from Clean where K = 0 and V = 1)")
				if err == nil {
					b.Fatal("expected merge guard for whole-relation assert")
				}
			}
		})
	}
}

// BenchmarkCompactRepairUncertain: REPAIR BY KEY over an *uncertain*
// source — a chained repair (repair of a repair) on the compact engine.
// Each key-group component splits in place (Σ-alternatives work, zero
// merges), then a CONF closure runs over the chained result. n=18
// represents 2^18 worlds — beyond the naive engine's enumeration — and
// n=1000 ≈ 2^1000 worlds, both linear in the representation.
func BenchmarkCompactRepairUncertain(b *testing.B) {
	for _, n := range []int{4, 8, 12, 18, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := componentwiseDB(b, n)
				b.StartTimer()
				if _, err := cdb.Exec("create table Cleaner as select * from Clean repair by key K, V"); err != nil {
					b.Fatal(err)
				}
				res, err := cdb.Exec("select conf, K, V from Cleaner")
				if err != nil {
					b.Fatal(err)
				}
				rel := res.First()
				if rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", rel.Len())
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("chained repair merged")
				}
				b.StartTimer()
			}
		})
	}
}

// ---- conditional decomposition (d-tree) route benchmarks ----

// conditionalCleanerDB is componentwiseDB plus the nesting chained
// repair: Cleaner's per-key repairs hang as conditional children under
// Clean's feeding alternatives — the d-tree regime; the flat Clean is
// the degenerate one-level tree the *Flat legs below query.
func conditionalCleanerDB(b *testing.B, n int) *CompactDB {
	b.Helper()
	cdb := componentwiseDB(b, n)
	if _, err := cdb.Exec("create table Cleaner as select * from Clean repair by key K, V"); err != nil {
		b.Fatal(err)
	}
	return cdb
}

// naiveCleanerDB is the enumerating counterpart: the chained repair
// re-splits every one of the 2^n worlds, so sizes stop where
// enumeration does.
func naiveCleanerDB(b *testing.B, n int) *DB {
	b.Helper()
	db := naiveDirtyDB(b, n)
	db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
	return db
}

// BenchmarkConditionalRepair measures the nesting split alone: REPAIR BY
// KEY over the uncertain Clean creates conditional children under every
// feeding alternative — no merge, no expansion, linear in the
// representation. The naive leg re-splits 2^n enumerated worlds
// (see also BenchmarkNaiveRepairUncertain / BenchmarkCompactRepairUncertain,
// which add the closing CONF query to the same shapes).
func BenchmarkConditionalRepair(b *testing.B) {
	for _, n := range []int{4, 18, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := componentwiseDB(b, n)
				b.StartTimer()
				if _, err := cdb.Exec("create table Cleaner as select * from Clean repair by key K, V"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("nesting split merged")
				}
				if cdb.RouteCounts()["conditional"] == 0 {
					b.Fatal("split did not nest")
				}
				b.StartTimer()
			}
		})
	}
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("naive/groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := naiveDirtyDB(b, n)
				b.StartTimer()
				db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
			}
		})
	}
}

// benchConditionalSelect runs one query over the nested Cleaner (two-level
// tree fold), the flat Clean (one-level degenerate case of the same
// conditional route) and the enumerating engine, asserting the compact
// legs stay merge-free and actually route conditional.
func benchConditionalSelect(b *testing.B, confQuery bool) {
	table := func(nested bool) string {
		if nested {
			return "Cleaner"
		}
		return "Clean"
	}
	query := func(nested bool) string {
		if confQuery {
			return "select conf, K, V from " + table(nested)
		}
		return "select K, V from " + table(nested)
	}
	for _, leg := range []struct {
		name   string
		nested bool
	}{{"flat", false}, {"nested", true}} {
		for _, n := range []int{4, 18} {
			b.Run(fmt.Sprintf("%s/groups=%d/worlds=2^%d", leg.name, n, n), func(b *testing.B) {
				var cdb *CompactDB
				if leg.nested {
					cdb = conditionalCleanerDB(b, n)
				} else {
					cdb = componentwiseDB(b, n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cdb.Exec(query(leg.nested))
					if err != nil {
						b.Fatal(err)
					}
					rel := res.First()
					if rel.Len() < 2*n {
						b.Fatalf("wrong answer: %d rows", rel.Len())
					}
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("conditional query merged")
				}
				if !confQuery && cdb.RouteCounts()["conditional"] == 0 {
					b.Fatal("query did not route conditional")
				}
			})
		}
	}
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("naive/groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			db := naiveCleanerDB(b, n)
			q := query(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := db.MustExec(q)
				// A plain select renders per world (no closure groups); conf
				// closes into one group.
				if confQuery && len(res.Groups) == 0 {
					b.Fatal("empty naive answer")
				}
			}
		})
	}
}

// BenchmarkConditionalSelect: a plain per-world SELECT answered as a
// conditional relation (the query schema plus a cond column) — nested
// tree vs flat product vs the naive engine's per-world enumeration.
func BenchmarkConditionalSelect(b *testing.B) { benchConditionalSelect(b, false) }

// BenchmarkConditionalConf: the CONF closure as a conditional tree fold —
// each alternative weighted by its conditioning path — against the flat
// componentwise fold and the naive 2^n-world sum.
func BenchmarkConditionalConf(b *testing.B) { benchConditionalSelect(b, true) }

// ---- batch-native closure pipeline past the Collect seam ----

// bulkChoiceDB builds one choice component with alts alternatives of rows
// tuples each — per-alternative parts far above the vectorization floor, the
// regime the batch-native closure pipeline targets — plus a tiny independent
// choice table P for the grouped closure. Answers stay columnar end to end:
// vectorized evaluation, closures over batch keys, rows materialized once.
// (The BenchmarkRowClosure* halves ran the same queries with vectorization
// and the seam switched off; their numbers stay in BENCH_2026-08-08.json.)
func bulkChoiceDB(b *testing.B, alts, rows int) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	data := make([][]any, 0, alts*rows)
	for g := 0; g < alts; g++ {
		for r := 0; r < rows; r++ {
			data = append(data, []any{g, r, 1})
		}
	}
	if err := cdb.Register("Cand", []string{"G", "V", "W"}, data); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table U as select * from Cand choice of G"); err != nil {
		b.Fatal(err)
	}
	if err := cdb.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table P as select * from C choice of A"); err != nil {
		b.Fatal(err)
	}
	return cdb
}

func benchBatchClosure(b *testing.B, query string, wantRows int) {
	cdb := bulkChoiceDB(b, 8, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cdb.Exec(query)
		if err != nil {
			b.Fatal(err)
		}
		rel := res.First()
		if rel.Len() != wantRows {
			b.Fatalf("wrong answer: %d rows, want %d", rel.Len(), wantRows)
		}
	}
	b.StopTimer()
	if cdb.MergeCount() != 0 {
		b.Fatal("closure benchmark merged")
	}
}

// BenchmarkBatchClosurePossible: the POSSIBLE union-with-dedup over 8
// alternatives × 2048 tuples.
func BenchmarkBatchClosurePossible(b *testing.B) {
	benchBatchClosure(b, `select possible V from U where V < 1536`, 1536)
}

// BenchmarkBatchClosureConf: the CONF closure — dedup plus per-alternative
// probability accumulation.
func BenchmarkBatchClosureConf(b *testing.B) {
	benchBatchClosure(b, `select conf, V from U where V < 1536`, 1536)
}

// BenchmarkBatchClosureGroupWorlds: the grouped closure — fingerprint fold
// plus a per-group POSSIBLE run.
func BenchmarkBatchClosureGroupWorlds(b *testing.B) {
	cdb := bulkChoiceDB(b, 8, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cdb.Exec("select possible V from U group worlds by (select B from P)")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) != 2 {
			b.Fatal("wrong group count")
		}
	}
	b.StopTimer()
	if cdb.MergeCount() != 0 {
		b.Fatal("group worlds benchmark merged")
	}
}

// BenchmarkNaiveRepairUncertain is the naive baseline for the chained
// repair: the enumerating engine re-splits every world (2^n per-world
// repairs plus a 2^n-world conf fold), so sizes stop where enumeration
// does.
func BenchmarkNaiveRepairUncertain(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := Open()
				if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
					b.Fatal(err)
				}
				db.MustExec("create table Clean as select K, V, W from Dirty repair by key K weight W")
				b.StartTimer()
				db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
				res := db.MustExec("select conf, K, V from Cleaner")
				if res.Groups[0].Rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", res.Groups[0].Rel.Len())
				}
			}
		})
	}
}

// ---- reads over an imported relation: mostly certain, a little dirt ----

// importedDB bulk-loads rows rows of (K, A, Cat, W) with alts alternatives of
// dirt between them — alts/6 NULL categories (a choice among the four) and the
// rest as two-row key conflicts, the mix of bench/'s ingest.dml — beside a
// 200-row certain table L. Everything else in B is the certain part the
// paper's decompositions factor the uncertainty out of.
func importedDB(b *testing.B, rows, alts int) *CompactDB {
	b.Helper()
	nulls := alts / 6
	conflicts := (alts - 4*nulls) / 2
	var csv strings.Builder
	csv.WriteString("K,A,Cat,W\n")
	every := rows / (nulls + conflicts)
	for i, k := 0, 0; i < rows; i++ {
		dirt, at := i/every, i%every
		if at != every/2 || dirt >= conflicts {
			k++ // else: repeat the key of the row before
		}
		cat := fmt.Sprint(i % 4)
		if at == every-1 && dirt < nulls {
			cat = ""
		}
		fmt.Fprintf(&csv, "%d,%d,%s,%d\n", k, (i*7919)%1000, cat, 1+i%5)
	}
	p, err := relation.LoadCSV(strings.NewReader(csv.String()),
		relation.ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"})
	if err != nil {
		b.Fatal(err)
	}
	cdb := OpenCompact()
	if err := cdb.w.Import("B", p); err != nil {
		b.Fatal(err)
	}
	if got := cdb.AlternativeCount(); got != alts {
		b.Fatalf("%d alternatives, want %d", got, alts)
	}
	side := make([][]any, 200)
	for i := range side {
		side[i] = []any{i * (rows / 200), (i * 37) % 1000}
	}
	if err := cdb.Register("L", []string{"K", "A"}, side); err != nil {
		b.Fatal(err)
	}
	return cdb
}

// BenchmarkImportedRead: closures over a bulk-imported relation. The certain
// part is evaluated once per statement and every alternative as a delta
// (internal/wsd/componentwise.go), so a read costs O(rows + alts) — ×16 the
// alternatives must not cost ×16 the time.
func BenchmarkImportedRead(b *testing.B) {
	queries := []struct{ name, sql string }{
		{"conf", `select K, conf from B where K >= %d and K < %d and A > 250`},
		{"possible", `select possible Cat from B where K >= %d and K < %d`},
		{"join", `select possible B.Cat from B, L where B.K = L.K and B.K >= %d and B.K < %d and L.A > 500`},
	}
	for _, q := range queries {
		for _, rows := range []int{10000, 40000} {
			for _, alts := range []int{24, 400} {
				b.Run(fmt.Sprintf("%s/rows=%d/alts=%d", q.name, rows, alts), func(b *testing.B) {
					cdb := importedDB(b, rows, alts)
					query := fmt.Sprintf(q.sql, rows/4, rows/4+200)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := cdb.Exec(query)
						if err != nil {
							b.Fatal(err)
						}
						rel := res.First()
						if rel.Empty() {
							b.Fatal("empty answer")
						}
					}
					b.StopTimer()
					if cdb.MergeCount() != 0 {
						b.Fatal("imported read merged")
					}
				})
			}
		}
	}
}

// mergedDB is bench/'s closure.compact M: 8 keys with two weighted values
// each, already merged — by one statement on the merge route, a max (a sum
// is folded by convolution and merges nothing) — into one component of 256
// alternatives, so a benchmark times the merged component being answered,
// not the merge.
func mergedDB(b *testing.B) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	var rows [][]any
	for k := 0; k < 8; k++ {
		rows = append(rows, []any{k, (k * 7) % 50, 1}, []any{k, 50 + (k*13)%50, 3})
	}
	if err := cdb.Register("MSrc", []string{"K", "V", "W"}, rows); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("create table M as select * from MSrc repair by key K weight W"); err != nil {
		b.Fatal(err)
	}
	if _, err := cdb.Exec("select possible max(V) from M"); err != nil {
		b.Fatal(err)
	}
	if cdb.ComponentCount() != 1 || cdb.AlternativeCount() != 256 {
		b.Fatalf("M merged into %d components, %d alternatives; want 1, 256", cdb.ComponentCount(), cdb.AlternativeCount())
	}
	return cdb
}

// BenchmarkMergeRoute: statements whose plans correlate components, over a
// merged component — closures, CREATE TABLE AS, a grouping that spans the
// main query's components, and an UPDATE whose WHERE reads the uncertain
// relation. Each evaluates once per merged alternative, but possible.sum:
// a scalar sum takes the convolution route, whose one component here has
// 256 alternatives.
func BenchmarkMergeRoute(b *testing.B) {
	const cond = "400 > (select sum(V) from M)"
	cases := []struct {
		name string
		run  func(cdb *CompactDB, i int) error
	}{
		{"possible.sum", func(cdb *CompactDB, _ int) error {
			_, err := cdb.Exec("select possible sum(V) from M")
			return err
		}},
		{"conf.subquery", func(cdb *CompactDB, _ int) error {
			_, err := cdb.Exec("select K, conf from M where " + cond)
			return err
		}},
		{"ctas", func(cdb *CompactDB, i int) error {
			_, err := cdb.Exec(fmt.Sprintf("create table T%d as select K, V from M where %s", i, cond))
			return err
		}},
		{"group.spanning", func(cdb *CompactDB, _ int) error {
			res, err := cdb.Exec("select certain V from M where K = 1 group worlds by (select V from M where K = 1)")
			if err == nil && len(res.Groups) != 2 {
				err = fmt.Errorf("%d groups, want 2", len(res.Groups))
			}
			return err
		}},
		{"update.uncertain", func(cdb *CompactDB, _ int) error {
			_, err := cdb.Exec("update M set V = V + 1 where V < (select max(V) from M)")
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cdb := mergedDB(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.run(cdb, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalarAggregate answers the paper's Examples 2.8 (possible) and
// 2.10 (conf) over P4's n independent keys, key k repaired between V = k%10
// (weight 1) and V = 10 + k%10 (weight 3): the convolution route evaluates
// the sum's input twice, over the certain part and as one tagged delta, and
// folds n components reaching n + 1 sums, with no merge. The merge route
// took 2^n evaluations and refused n > 16.
func BenchmarkScalarAggregate(b *testing.B) {
	for _, q := range []struct {
		name string
		sql  func(n int) string
		rows func(n int) int
	}{
		{"possible", func(int) string { return "select possible sum(V) from M" }, func(n int) int { return n + 1 }},
		// The mean sum is 4.5n + 7.5n.
		{"conf", func(n int) string { return fmt.Sprintf("select conf from M where %d > (select sum(V) from M)", 12*n) },
			func(int) int { return 1 }},
	} {
		for _, n := range []int{8, 1000} {
			b.Run(fmt.Sprintf("%s/comps=%d", q.name, n), func(b *testing.B) {
				cdb := OpenCompact()
				rows := make([][]any, 0, 2*n)
				for k := 0; k < n; k++ {
					rows = append(rows, []any{k, k % 10, 1}, []any{k, 10 + k%10, 3})
				}
				if err := cdb.Register("MSrc", []string{"K", "V", "W"}, rows); err != nil {
					b.Fatal(err)
				}
				cdb.MustExec("create table M as select K, V from MSrc repair by key K weight W")
				sql := q.sql(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cdb.Exec(sql)
					if err != nil {
						b.Fatal(err)
					}
					if got := res.First().Len(); got != q.rows(n) {
						b.Fatalf("%d rows, want %d", got, q.rows(n))
					}
				}
				if cdb.ComponentCount() != n || cdb.MergeCount() != 0 {
					b.Fatalf("%d components, %d merges; want %d and none", cdb.ComponentCount(), cdb.MergeCount(), n)
				}
			})
		}
	}
}
