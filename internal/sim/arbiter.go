package sim

import (
	"fmt"
	"unsafe"
)

// arbiterTamper, when non-nil, makes every Arbiter silently refuse to
// grant cores for which it returns true. It exists solely for the
// conformance harness's known-bad self-test: a tampered arbiter models a
// starvation bug in the cross-core issue path, which the co-run invariant
// checker must catch fleet-wide. Never set outside tests.
var arbiterTamper func(core int) bool

// SetArbiterTamper installs (or, with nil, removes) the test-only
// arbiter tamper hook. See arbiterTamper.
func SetArbiterTamper(skip func(core int) bool) { arbiterTamper = skip }

// Arbiter is the cross-core channel arbiter of the co-run memory system:
// each pump iteration it picks one schedulable core's prefetch candidate
// to feed the access prioritizer. The policy is round-robin — the scan
// starts just past the most recently granted core and the first
// schedulable core in rotation order wins — which gives a hard fairness
// bound: a core that is schedulable at every grant waits at most n-1
// grants.
//
// Grant probes every core exactly once per call, in rotation order, so
// the outcome is a function of (readiness vector, last grant) alone and
// never of the order in which the caller happens to enumerate cores.
// Every grant writes it, so it is padded to whole host cache lines, and
// its counters share one line-rounded array.
type Arbiter struct {
	_ [(lineBytes - unsafe.Sizeof(arbiterState{})%lineBytes) % lineBytes]byte
	arbiterState
}

type arbiterState struct {
	n    int
	last int // most recently granted core; scan starts at last+1

	// passedOver[c] counts consecutive Grant calls in which core c was
	// schedulable but another core won. It resets on a grant to c and on
	// any probe that finds c unschedulable, so it measures exactly the
	// wait of a continuously requesting core — the quantity round-robin
	// bounds by n-1.
	passedOver []uint64
	grants     []uint64
}

// NewArbiter returns a round-robin arbiter over n cores; the first scan
// starts at core 0.
func NewArbiter(n int) *Arbiter {
	if n <= 0 {
		panic(fmt.Sprintf("sim: arbiter over %d cores", n))
	}
	counts := make([]uint64, 2*n, (2*n+7)&^7)
	return &Arbiter{arbiterState: arbiterState{
		n:          n,
		last:       n - 1,
		passedOver: counts[:n:n],
		grants:     counts[n:],
	}}
}

// Grant picks the next core: the first one in rotation order (starting
// just past the previous grant) for which ready reports true. It returns
// (core, true) on a grant and (0, false) when no core is ready — the
// arbiter is work-conserving by construction. Every core is probed
// exactly once per call regardless of where the winner sits, both for
// fairness bookkeeping and so ready's call pattern cannot leak the
// caller's enumeration order into the outcome.
func (a *Arbiter) Grant(ready func(core int) bool) (int, bool) {
	granted := -1
	for off := 1; off <= a.n; off++ {
		core := a.last + off
		if core >= a.n {
			core -= a.n
		}
		if !ready(core) {
			a.passedOver[core] = 0
			continue
		}
		if granted < 0 && (arbiterTamper == nil || !arbiterTamper(core)) {
			granted = core
			continue
		}
		a.passedOver[core]++
	}
	if granted < 0 {
		return 0, false
	}
	a.passedOver[granted] = 0
	a.grants[granted]++
	a.last = granted
	return granted, true
}

// Grants returns a copy of the per-core grant tallies.
func (a *Arbiter) Grants() []uint64 {
	out := make([]uint64, a.n)
	copy(out, a.grants)
	return out
}

// CheckFairness audits the round-robin bound: a continuously schedulable
// core can legally be passed over at most n-1 consecutive grants, so a
// counter at n or above means the arbiter is starving that core. The
// co-run invariant checker calls it; a violation is how a tampered (or
// buggy) arbiter surfaces fleet-wide.
func (a *Arbiter) CheckFairness() error {
	for c, p := range a.passedOver {
		if p >= uint64(a.n) {
			return fmt.Errorf("arbiter starvation: core %d passed over %d consecutive grants (round-robin bound is %d)",
				c, p, a.n-1)
		}
	}
	return nil
}
