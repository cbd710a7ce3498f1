// Census-scale cleaning on the compact (world-set decomposition) backend:
// the "10^10^6 worlds and beyond" workload of the companion papers. A
// large census table with ambiguous records is repaired into an
// astronomically large world-set kept in linear space, and tuple
// confidences are computed exactly without enumerating a single world.
package main

import (
	"fmt"
	"math"

	"maybms"
)

const (
	people     = 50_000 // census records
	dirtyEvery = 5      // every 5th record has an ambiguous marital status
)

func main() {
	cdb := maybms.OpenCompact()

	// Synthetic census: (PID, MaritalStatus, Weight). Dirty records carry
	// two candidate readings with 2:1 odds; clean ones a single reading.
	rows := make([][]any, 0, people+people/dirtyEvery)
	for pid := 0; pid < people; pid++ {
		if pid%dirtyEvery == 0 {
			rows = append(rows,
				[]any{pid, "married", 2},
				[]any{pid, "single", 1})
		} else {
			rows = append(rows, []any{pid, "single", 1})
		}
	}
	if err := cdb.Register("Census", []string{"PID", "Status", "W"}, rows); err != nil {
		panic(err)
	}

	// Repair the key PID: one independent component per person.
	cdb.MustExec("create table Clean as select * from Census repair by key PID weight W")

	count := cdb.WorldCount()
	digits := float64(count.BitLen()-1) * math.Log10(2)
	fmt.Printf("census records:        %d (%d ambiguous)\n", people, people/dirtyEvery)
	fmt.Printf("representation size:   %d alternatives in %d components\n",
		cdb.AlternativeCount(), cdb.ComponentCount())
	fmt.Printf("represented worlds:    ~10^%.0f\n", digits)

	// Exact confidences, no enumeration: an ambiguous person is married
	// with probability 2/3.
	conf := func(sql string) float64 { return cdb.MustExec(sql).First().Rows()[0][0].AsFloat() }
	fmt.Printf("conf(person 0 married): %.4f (expected 2/3)\n",
		conf("select conf from Clean where PID = 0 and Status = 'married' and W = 2"))
	fmt.Printf("conf(person 1 single):  %.4f (expected 1)\n",
		conf("select conf from Clean where PID = 1 and Status = 'single' and W = 1"))

	// Certain tuples: the clean records.
	cert := cdb.MustExec("select certain * from Clean").First()
	fmt.Printf("certain records:       %d (expected %d)\n", cert.Len(), people-people/dirtyEvery)

	// Enforce a constraint on a slice of the data: person 0 is known to be
	// married (e.g. from a second register). Only person 0's component is
	// touched; the rest of the decomposition is untouched.
	if _, err := cdb.Exec("assert exists (select * from Clean where PID = 0 and Status = 'married')"); err != nil {
		fmt.Printf("assert over the full relation needs a %v\n", err)
		fmt.Println("(the assert touches every component through relation Clean;")
		fmt.Println(" scoping constraints to slices is what CREATE TABLE AS is for)")
	}

	// Materialize the married sub-population per world instead.
	if _, err := cdb.Exec("create table Married as select PID from Clean where Status = 'married'"); err != nil {
		fmt.Printf("materializing over all components: %v\n", err)
		fmt.Println("(expected: the query touches every component — the naive engine or")
		fmt.Println(" per-component queries handle this; see DESIGN.md on partial expansion)")
	}
}
