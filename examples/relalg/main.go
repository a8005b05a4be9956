// Relational algebra: the Theorem 11 story in both directions. The
// symmetric-difference query Q' = (R1 − R2) ∪ (R2 − R1) is compiled
// to scan/sort passes (O(log N) reversals, upper bound), and its
// emptiness decides SET-EQUALITY (so the Theorem 6 lower bound makes
// Q' require Ω(log N) random accesses on streams).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	q := relalg.SymmetricDifference("R1", "R2")
	fmt.Printf("query: %s\n\n", q)

	for _, equal := range []bool{true, false} {
		var in problems.Instance
		if equal {
			in = problems.GenSetYes(512, 16, rng)
		} else {
			in = problems.GenSetNo(512, 16, rng)
		}
		db := relalg.InstanceDB(in)

		m := core.NewMachine(relalg.NumQueryTapes, 1)
		result, err := relalg.EvalST(q, db, m)
		m.Close()
		if err != nil {
			log.Fatal(err)
		}
		res := m.Resources()
		n := db.Size()
		fmt.Printf("R1 %s R2 (N = %d):\n", map[bool]string{true: "=", false: "≠"}[equal], n)
		fmt.Printf("  |Q'| = %d tuples, so sets %s equal\n",
			len(result.Tuples), map[bool]string{true: "ARE", false: "are NOT"}[len(result.Tuples) == 0])
		fmt.Printf("  resources: %v  (scans/log2N = %.1f)\n\n",
			res, float64(res.Scans())/math.Log2(float64(n)))
	}

	// A richer query: names of items present in R1 with a selected tag.
	db := relalg.DB{
		"Items": {Schema: relalg.Schema{"id", "tag"}, Tuples: []relalg.Tuple{
			{"1", "red"}, {"2", "blue"}, {"3", "red"}, {"4", "green"},
		}},
	}
	rich := relalg.Project{
		Cols: []string{"id"},
		In:   relalg.Select{Pred: relalg.ConstEq{Col: "tag", Const: "red"}, In: relalg.Scan{Rel: "Items"}},
	}
	m := core.NewMachine(relalg.NumQueryTapes, 1)
	defer m.Close()
	out, err := relalg.EvalST(rich, db, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s → %d tuples: %v\n", rich, len(out.Tuples), out.Sorted())
}
