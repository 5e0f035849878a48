package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"semicont"
	"semicont/internal/sweep"
)

// runAt executes one experiment function with the shared pool sized to
// w workers and returns its Output. Trials is 2 so the cross-trial
// aggregation order is exercised, not just single-result plumbing.
func runAt(t *testing.T, w int, f func(semicont.System, Options) (*Output, error)) *Output {
	t.Helper()
	opts := tinyOpts()
	opts.Trials = 2
	opts.Pool = sweep.New(w)
	out, err := f(semicont.SmallSystem(), opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", w, err)
	}
	return out
}

// TestSweepsDeterministicAcrossWorkers pins the flattened-sweep
// contract: an experiment's Output must be byte-identical no matter how
// many workers drain the cell×trial job list, because every trial's
// seed derives from its (cell, trial) index and every result lands in a
// pre-indexed slot. One allocator sweep, one fault sweep, and one
// admission sweep each run at 1, 2, and GOMAXPROCS workers and must
// reproduce the single-worker output exactly — any ordering dependence
// (a shared RNG, an append instead of an indexed store, aggregation in
// completion order) diverges here.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		f    func(semicont.System, Options) (*Output, error)
	}{
		{"allocators", SpareDisciplines},
		{"fault-sweep", FaultSweep},
		{"admission-sweep", AdmissionSweep},
	}
	workers := []int{2, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial := runAt(t, 1, tc.f)
			for _, w := range workers {
				got := runAt(t, w, tc.f)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("output diverged between workers=1 and workers=%d", w)
				}
			}
		})
	}
}

// TestSweepsDeterministicWithSharedPool reruns an experiment on one
// pool shared across invocations (the `-experiment all` shape, where
// every experiment's cells contend for the same semaphore) and demands
// the same output as a private pool — the pool must carry no per-run
// state.
func TestSweepsDeterministicWithSharedPool(t *testing.T) {
	t.Parallel()
	private := runAt(t, 2, FaultSweep)
	shared := sweep.New(2)
	opts := tinyOpts()
	opts.Trials = 2
	opts.Pool = shared
	if _, err := SpareDisciplines(semicont.SmallSystem(), opts); err != nil {
		t.Fatal(err)
	}
	out, err := FaultSweep(semicont.SmallSystem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(private, out) {
		t.Error("fault-sweep output diverged when the pool was shared with a prior experiment")
	}
}
