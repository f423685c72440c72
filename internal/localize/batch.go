package localize

import (
	"runtime"
	"sync"
)

// BatchResult pairs one observation's estimate with its error, in the
// input order.
type BatchResult struct {
	Estimate Estimate
	Err      error
}

// batchRun is the shared state of one BatchInto call; jobs carry only
// an index range into it, so the whole fan-out costs a handful of
// allocations regardless of batch size.
type batchRun struct {
	loc Locator
	obs []Observation
	out []BatchResult
}

// locateRange localizes observations [lo, hi) into the output slice.
func (r *batchRun) locateRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		est, err := r.loc.Locate(r.obs[i])
		r.out[i] = BatchResult{Estimate: est, Err: err}
	}
}

// BatchInto localizes many observations concurrently — the server-side
// shape of the toolkit, where one trained service answers a building's
// worth of clients. Results land in the caller-owned out slice (which
// must hold at least len(observations) results), and each observation
// is offered to the package's worker pool as one job — no per-call
// goroutines, no per-observation closures. The caller's goroutine
// localizes whatever the pool cannot take immediately, so a saturated
// pool degrades to inline execution rather than queueing. Results
// preserve input order; out[i] is valid when BatchInto returns.
//
// The locator must be safe for concurrent Locate calls; every
// localizer in this package is — its compiled view and tables are
// built in the constructor and only read by Locate.
//
//loclint:hotpath
func BatchInto(loc Locator, observations []Observation, out []BatchResult) {
	n := len(observations)
	if n == 0 {
		return
	}
	run := &batchRun{loc: loc, obs: observations, out: out[:n]}
	if n == 1 {
		run.locateRange(0, 1)
		return
	}
	ensureScorePool()
	fn := run.locateRange
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		if !trySubmit(scoreJob{fn: fn, lo: i, hi: i + 1, wg: &wg}) {
			fn(i, i+1)
			wg.Done()
		}
	}
	// The caller always localizes the last observation itself.
	fn(n-1, n)
	wg.Wait()
}

// scoreJob is one unit of pool work: run fn over [lo, hi) and check in.
type scoreJob struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	scorePoolOnce sync.Once
	scoreJobs     chan scoreJob
)

// ensureScorePool starts the package-level workers, one per CPU, on
// first use. The channel is unbuffered on purpose: a handoff succeeds
// only when a worker is parked and ready, so "no worker free" degrades
// to inline execution at the submit site instead of queue buildup.
func ensureScorePool() {
	scorePoolOnce.Do(func() {
		scoreJobs = make(chan scoreJob)
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				for j := range scoreJobs {
					j.fn(j.lo, j.hi)
					j.wg.Done()
				}
			}()
		}
	})
}

// trySubmit offers one job to the pool without blocking; the caller
// runs it inline when no worker is free.
func trySubmit(j scoreJob) bool {
	select {
	case scoreJobs <- j:
		return true
	default:
		return false
	}
}
