package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolWorkersDefault(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d, want 7", got)
	}
}

// TestGridResultsIndexed pins the determinism contract: results come
// back in (cell, trial) submission order no matter how jobs were
// scheduled.
func TestGridResultsIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := NewGrid[string](New(workers))
		const cells, trials = 7, 5
		for c := 0; c < cells; c++ {
			c := c
			got := g.Cell(trials, func(trial int) (string, error) {
				return fmt.Sprintf("%d/%d", c, trial), nil
			})
			if got != c {
				t.Fatalf("Cell returned index %d, want %d", got, c)
			}
		}
		out, err := g.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != cells {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(out), cells)
		}
		for c := range out {
			for trial, v := range out[c] {
				if want := fmt.Sprintf("%d/%d", c, trial); v != want {
					t.Errorf("workers=%d: cell %d trial %d = %q, want %q", workers, c, trial, v, want)
				}
			}
		}
	}
}

// TestGridFirstErrorInSubmissionOrder pins error selection: with
// several failing jobs, Wait reports the one a serial loop would have
// hit first, regardless of which failed first on the clock.
func TestGridFirstErrorInSubmissionOrder(t *testing.T) {
	g := NewGrid[int](New(4))
	boom := func(c, trial int) error { return fmt.Errorf("boom %d/%d", c, trial) }
	for c := 0; c < 4; c++ {
		c := c
		g.Cell(3, func(trial int) (int, error) {
			if c >= 1 && trial >= 1 {
				return 0, boom(c, trial)
			}
			return 0, nil
		})
	}
	_, err := g.Wait()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Wait error = %v, want *CellError", err)
	}
	if ce.Cell != 1 || ce.Trial != 1 {
		t.Errorf("first error at cell %d trial %d, want 1/1", ce.Cell, ce.Trial)
	}
	if got, want := ce.Err.Error(), "boom 1/1"; got != want {
		t.Errorf("unwrapped error %q, want %q", got, want)
	}
}

// TestPoolBoundsConcurrency verifies the semaphore actually caps
// simultaneous jobs.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := NewGrid[int](New(workers))
	var inFlight, peak atomic.Int64
	g.Cell(50, func(trial int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		inFlight.Add(-1)
		return trial, nil
	})
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, pool caps at %d", p, workers)
	}
}

// TestSharedPoolAcrossGrids runs two grids through one pool — the
// paperfigs pattern, where every experiment shares one pool.
func TestSharedPoolAcrossGrids(t *testing.T) {
	p := New(2)
	a, b := NewGrid[int](p), NewGrid[int](p)
	a.Cell(10, func(trial int) (int, error) { return trial, nil })
	b.Cell(10, func(trial int) (int, error) { return trial * 2, nil })
	ra, err := a.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if ra[0][i] != i || rb[0][i] != 2*i {
			t.Fatalf("trial %d: got %d/%d", i, ra[0][i], rb[0][i])
		}
	}
}

func TestEmptyGridWait(t *testing.T) {
	g := NewGrid[int](nil)
	out, err := g.Wait()
	if err != nil || len(out) != 0 {
		t.Errorf("empty Wait = %v, %v; want no cells, no error", out, err)
	}
}
