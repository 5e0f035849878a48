// Package sweep is the experiment throughput layer: a bounded worker
// pool plus a flattened (cell × trial) job grid over it.
//
// An experiment is a grid of cells (one per scenario: a policy at a
// load, an allocator at an MTBF, …), each run for several independent
// trials. The paper's sweeps are embarrassingly parallel — every trial
// is a pure function of its derived seed — but a per-cell fan-out caps
// concurrency at the trial count (five) while cells execute serially.
// Grid instead submits the whole matrix as one job list drained by a
// single Pool, so wall clock scales with workers rather than with the
// number of cells.
//
// Determinism contract: every job writes its result into a slot indexed
// by (cell, trial) fixed at submission, and Wait returns cells in
// submission order with the first error selected in (cell, trial)
// order. Scheduling therefore cannot reorder anything observable:
// output is byte-identical to a serial run regardless of the worker
// count (the same contract the GOMAXPROCS determinism tests pin for
// RunTrials).
package sweep

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds the number of simulation jobs running at once. It is a
// counting semaphore rather than a fixed set of worker goroutines:
// there is no lifecycle to manage, an idle pool consumes nothing, and
// any number of grids can share one pool (vodsim's -experiment all runs
// every experiment through a single pool).
type Pool struct {
	sem chan struct{}
}

// New returns a pool admitting at most workers concurrent jobs;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// CellError reports the first failed job in (cell, trial) submission
// order.
type CellError struct {
	Cell  int // cell index as returned by Grid.Cell
	Trial int // trial index within the cell
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d trial %d: %v", e.Cell, e.Trial, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Grid collects a (cell × trial) job matrix over one pool. Cells are
// submitted from a single goroutine; jobs start running immediately as
// pool slots free up, and Wait blocks until every submitted job has
// finished.
//
// Jobs must not submit to or wait on the grid's own pool: a job that
// blocks on a pool slot it transitively occupies deadlocks. Submit the
// whole matrix flat instead — that is the point of the grid.
type Grid[T any] struct {
	pool  *Pool
	wg    sync.WaitGroup
	cells [][]T
	errs  [][]error
}

// NewGrid returns an empty grid over p; a nil pool gets a private one
// of GOMAXPROCS workers.
func NewGrid[T any](p *Pool) *Grid[T] {
	if p == nil {
		p = New(0)
	}
	return &Grid[T]{pool: p}
}

// Cell submits one cell of trials jobs and returns the cell's index
// into Wait's result. run is called once per trial from a pool worker;
// its result lands in the slot pre-indexed by the trial number, so
// scheduling order cannot reorder results. Not safe for concurrent use
// with other Cell or Wait calls.
func (g *Grid[T]) Cell(trials int, run func(trial int) (T, error)) int {
	idx := len(g.cells)
	results := make([]T, trials)
	errs := make([]error, trials)
	g.cells = append(g.cells, results)
	g.errs = append(g.errs, errs)
	for t := 0; t < trials; t++ {
		g.wg.Add(1)
		go func(t int) {
			defer g.wg.Done()
			g.pool.sem <- struct{}{}
			defer func() { <-g.pool.sem }()
			results[t], errs[t] = run(t)
		}(t)
	}
	return idx
}

// Wait blocks until every submitted job has finished and returns the
// cells in submission order. On failure it returns the first error in
// (cell, trial) order as a *CellError — the same error a serial loop
// over the matrix would have stopped at.
func (g *Grid[T]) Wait() ([][]T, error) {
	g.wg.Wait()
	for c, errs := range g.errs {
		for t, err := range errs {
			if err != nil {
				return nil, &CellError{Cell: c, Trial: t, Err: err}
			}
		}
	}
	return g.cells, nil
}
