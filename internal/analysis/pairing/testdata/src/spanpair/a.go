// Fixture for the pairing analyzer's span row: every Tracer.Begin must reach an
// OpenSpan.End (or visibly transfer ownership) on all paths out.
package spanpair

import (
	"time"

	"gflink/internal/obs"
)

func straightLine(tr *obs.Tracer, t0, t1 time.Duration) {
	s := tr.Begin("driver", "plan", "ok", t0)
	s.End(t1)
}

func discarded(tr *obs.Tracer, t0 time.Duration) {
	tr.Begin("driver", "plan", "dropped", t0) // want `not ended on every path`
}

func earlyReturnLeak(tr *obs.Tracer, t0, t1 time.Duration, fail bool) {
	s := tr.Begin("driver", "plan", "leaky", t0) // want `not ended on every path`
	if fail {
		return // leaks s
	}
	s.End(t1)
}

func earlyReturnClosed(tr *obs.Tracer, t0, t1 time.Duration, fail bool) {
	s := tr.Begin("driver", "plan", "ok", t0)
	if fail {
		s.End(t1)
		return
	}
	s.End(t1)
}

func branchJoin(tr *obs.Tracer, t0, t1 time.Duration, c bool) {
	s := tr.Begin("driver", "plan", "ok", t0)
	if c {
		s.End(t1)
	} else {
		s.End(t1 + 1)
	}
}

func oneBranchOnly(tr *obs.Tracer, t0, t1 time.Duration, c bool) {
	s := tr.Begin("driver", "plan", "half", t0) // want `not ended on every path`
	if c {
		s.End(t1)
	}
}

func panicLeak(tr *obs.Tracer, t0, t1 time.Duration, c bool) {
	s := tr.Begin("driver", "plan", "boom", t0) // want `not ended on every path`
	if c {
		panic("abort") // leaks s: no defer covers the panic exit
	}
	s.End(t1)
}

func deferClosure(tr *obs.Tracer, t0 time.Duration, clock func() time.Duration, c bool) {
	s := tr.Begin("driver", "plan", "ok", t0)
	defer func() { s.End(clock()) }()
	if c {
		panic("abort") // covered: the deferred closure ends s
	}
}

func deferDirect(tr *obs.Tracer, t0, t1 time.Duration, c bool) {
	s := tr.Begin("driver", "plan", "ok", t0)
	defer s.End(t1)
	if c {
		return
	}
}

func loopPerIteration(tr *obs.Tracer, clock func() time.Duration, n int) {
	for i := 0; i < n; i++ {
		s := tr.Begin("driver", "iter", "ok", clock())
		s.End(clock())
	}
}

func loopLeakOnBreak(tr *obs.Tracer, clock func() time.Duration, n int) {
	for i := 0; i < n; i++ {
		s := tr.Begin("driver", "iter", "leaky", clock()) // want `not ended on every path`
		if i == 3 {
			break // leaks this iteration's span
		}
		s.End(clock())
	}
}

func ownershipTransfer(tr *obs.Tracer, t0 time.Duration, sink func(*obs.OpenSpan)) {
	s := tr.Begin("driver", "plan", "handed-off", t0)
	sink(s) // ownership moved: the callee must end it
}

func returnedHandle(tr *obs.Tracer, t0 time.Duration) *obs.OpenSpan {
	s := tr.Begin("driver", "plan", "caller-owned", t0)
	return s
}

func nilCheckIsNotAnEscape(tr *obs.Tracer, t0, t1 time.Duration) {
	s := tr.Begin("driver", "plan", "checked", t0) // want `not ended on every path`
	if s == nil {
		return
	}
	_ = s != nil
}

func reassignedLeaks(tr *obs.Tracer, t0, t1 time.Duration) {
	s := tr.Begin("driver", "plan", "first", t0) // want `not ended on every path`
	s = tr.Begin("driver", "plan", "second", t0)
	s.End(t1)
}

func suppressed(tr *obs.Tracer, t0, t1 time.Duration, c bool) {
	//gflink:span-escapes -- ended by a background recorder the analysis cannot see
	s := tr.Begin("driver", "plan", "waived", t0)
	if c {
		s.End(t1)
	}
}

func insideClosure(tr *obs.Tracer, clock func() time.Duration, c bool) func() {
	return func() {
		s := tr.Begin("driver", "cb", "leaky", clock()) // want `not ended on every path`
		if c {
			s.End(clock())
		}
	}
}

func closureOK(tr *obs.Tracer, clock func() time.Duration) func() {
	return func() {
		s := tr.Begin("driver", "cb", "ok", clock())
		s.End(clock())
	}
}
