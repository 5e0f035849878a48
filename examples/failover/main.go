// Failover: dynamic request migration as a fault-tolerance mechanism
// (Section 3.1: "the ability to dynamically switch servers for a single
// stream can help deal with node server failures").
//
// A server dies mid-run. Without DRM every stream it carried is lost;
// with DRM the controller re-homes streams onto other replica holders
// with spare slots. The example also attaches an event-trace recorder
// (the library's Observer hook) to show exactly which streams were
// rescued where.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"semicont"
	"semicont/internal/faults"
	"semicont/internal/trace"
)

// drill is the failure drill: the small system at 80% offered load,
// with server 2 failing at t = 30 h, scripted as a one-event fault
// trace.
func drill(pol semicont.Policy) semicont.Scenario {
	return semicont.Scenario{
		System:       semicont.SmallSystem(),
		Policy:       pol,
		Theta:        0.271,
		HorizonHours: 60,
		LoadFactor:   0.8,
		Seed:         3,
		Faults: faults.Config{Trace: []faults.Event{
			{AtHours: 30, Server: 2, Kind: faults.KindFail},
		}},
	}
}

func main() {
	fmt.Println("Failure drill: server 2 of the small system dies at t = 30 h")
	fmt.Println("(offered load 80% of capacity so survivors have headroom)")
	fmt.Println()

	drm := semicont.Policy{Name: "DRM", Placement: semicont.EvenPlacement, Migration: true}
	for _, pol := range []semicont.Policy{
		{Name: "no-DRM", Placement: semicont.EvenPlacement},
		drm,
	} {
		res, err := semicont.Run(drill(pol))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s utilization %.4f | %3d streams rescued, %3d dropped mid-play\n",
			pol.Name, res.Utilization, res.RescuedStreams, res.DroppedStreams)
	}

	// Re-run the DRM case with full tracing to show the rescue detail.
	rec := &trace.Recorder{}
	sc := drill(drm)
	sc.Observer = rec
	if _, err := semicont.Run(sc); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrescue trace (first 10 migrations off the failed server):")
	shown := 0
	for _, ev := range rec.Events {
		if ev.Kind == trace.Migrate && ev.Rescue {
			fmt.Printf("  t=%8.1fs  stream %5d (video %3d): server %d -> %d\n",
				ev.Time, ev.Request, ev.Video, ev.From, ev.To)
			shown++
			if shown == 10 {
				break
			}
		}
	}
	if shown == 0 {
		fmt.Println("  (no rescues occurred — try a different seed)")
	}
}
