// Quickstart: build an ST machine, run the deterministic
// MULTISET-EQUALITY decider of Corollary 7 on a generated instance,
// and read the exact resource report — the two quantities the paper's
// complexity classes bound.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A yes-instance: the second half is a shuffle of the first.
	in := problems.GenMultisetYes(1024, 16, rng)
	fmt.Printf("instance: m = %d values of %d bits, N = %d symbols\n",
		in.M(), len(in.V[0]), in.Size())

	// An ST machine: 5 external tapes (input + 2 halves + 2 merge-sort
	// work tapes), an internal-memory meter, deterministic randomness.
	m := core.NewMachine(algorithms.NumDeciderTapes, 42)
	defer m.Close()
	m.SetInput(in.Encode())

	verdict, err := algorithms.MultisetEqualityST(m)
	if err != nil {
		log.Fatal(err)
	}
	res := m.Resources()

	fmt.Printf("verdict:  %v (reference: %v)\n", verdict, problems.MultisetEquality(in))
	fmt.Printf("resources: %v\n", res)
	fmt.Printf("scans / log2(N) = %.2f  — the O(log N) of Corollary 7\n",
		float64(res.Scans())/math.Log2(float64(in.Size())))

	// The same instance under the Theorem 8(a) fingerprint: 2 scans.
	fp := core.NewMachine(1, 42)
	defer fp.Close()
	fp.SetInput(in.Encode())
	v2, params, err := algorithms.FingerprintMultisetEquality(fp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfingerprint verdict: %v with p1=%d, p2=%d, x=%d\n", v2, params.P1, params.P2, params.X)
	fmt.Printf("fingerprint resources: %v  — the co-RST(2, O(log N), 1) of Theorem 8(a)\n",
		fp.Resources())
}
