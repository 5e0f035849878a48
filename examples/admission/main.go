// Admission: the same overloaded cluster run under every admission
// selector, plus two DRM chain budgets, to show the controller's
// choices in action.
//
// The paper's controller (Section 3.2) assigns each arrival to the
// least-loaded replica holder. That rule is now one of several named
// selectors: Policy.Selector names the admission policy and
// Policy.MaxChain bounds the migration chain, so alternatives can be
// compared without touching the engine. At high load the selector
// decides which servers saturate first, which shows up directly in the
// rejection ratio.
//
//	go run ./examples/admission
package main

import (
	"fmt"
	"log"

	"semicont"
)

func main() {
	system := semicont.SmallSystem()

	fmt.Println("Admission drill: 5-server cluster at 120% offered load, theta = 0.271")
	fmt.Println()

	// Every selector under the same seed and workload. The selector
	// only picks among feasible holders, so differences are pure
	// placement quality, not capacity.
	fmt.Printf("%-18s  %-12s  %-10s\n", "selector", "utilization", "rejected")
	for _, sel := range semicont.SelectorNames() {
		res, err := semicont.Run(semicont.Scenario{
			System: system,
			Policy: semicont.Policy{
				Name:      sel,
				Placement: semicont.EvenPlacement,
				Selector:  sel,
			},
			Theta:        0.271,
			LoadFactor:   1.2,
			HorizonHours: 60,
			Seed:         7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s  %.4f        %5.2f%%\n",
			sel, res.Utilization, 100*res.RejectionRatio)
	}

	// The chain budgets: same selector, DRM enabled with chains of up
	// to three moves, or of single moves only.
	fmt.Println()
	fmt.Printf("%-18s  %-10s  %-12s  %s\n", "chain budget", "rejected", "via DRM", "max chain")
	for _, chain := range []int{3, 1} {
		name := fmt.Sprintf("max-chain %d", chain)
		res, err := semicont.Run(semicont.Scenario{
			System: system,
			Policy: semicont.Policy{
				Name:      name,
				Placement: semicont.EvenPlacement,
				Migration: true,
				MaxChain:  chain,
			},
			Theta:        0.271,
			LoadFactor:   1.2,
			HorizonHours: 60,
			Seed:         7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s  %5.2f%%     %-12d  %d\n",
			name, 100*res.RejectionRatio, res.AdmissionsViaDRM, res.MaxChainUsed)
	}

	fmt.Println()
	fmt.Println("least-loaded spreads streams evenly and rejects least; first-fit piles")
	fmt.Println("onto the early servers and pays for it. Chains of up to three moves turn")
	fmt.Println("more full-cluster arrivals into migrations than single moves alone can.")
}
