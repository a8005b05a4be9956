// Fingerprint: the Theorem 8(a) streaming multiset-equality check on
// a large stream, demonstrating the one-sided error profile — equal
// multisets always accepted, unequal ones rejected with high
// probability, all in exactly two sequential scans.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const m, n = 4096, 24

	yes := problems.GenMultisetYes(m, n, rng)
	no := problems.GenMultisetNo(m, n, rng) // one flipped bit somewhere

	fmt.Printf("stream: 2×%d values of %d bits (N = %d)\n\n", m, n, yes.Size())

	run := func(label string, in problems.Instance, trials int) {
		accepts := 0
		var res core.Resources
		for i := 0; i < trials; i++ {
			mc := core.NewMachine(1, int64(1000+i))
			mc.SetInput(in.Encode())
			v, _, err := algorithms.FingerprintMultisetEquality(mc)
			mc.Close()
			if err != nil {
				log.Fatal(err)
			}
			if v == core.Accept {
				accepts++
			}
			res = mc.Resources()
		}
		fmt.Printf("%-14s accepted %3d/%3d  (%v)\n", label, accepts, trials, res)
	}

	run("equal:", yes, 50)
	run("one bit off:", no, 50)

	fmt.Println("\nBoosting (reject if ANY of 5 independent runs rejects):")
	mc := core.NewMachine(1, 99)
	defer mc.Close()
	mc.SetInput(no.Encode())
	v, err := algorithms.FingerprintRepeated(mc, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boosted verdict on the unequal stream: %v (%v)\n", v, mc.Resources())
}
