package resilience

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Fault kinds label transient infrastructure faults so the supervisor
// can budget retries per class: on a batch machine a scheduler kill is
// routinely cured by a requeue, while an OOM usually recurs until the
// node (or the variant's footprint) changes, and a hang says the worker
// wedged. Kinds are strings, not an enum, so real evaluators can
// introduce site-specific classes without touching this package.
const (
	// KindGeneric is every fault no other rule claims.
	KindGeneric = "generic"
	// KindSchedulerKill: the batch system killed the worker (SIGTERM/
	// SIGKILL, preemption, job wall-clock limit).
	KindSchedulerKill = "scheduler-kill"
	// KindOOM: the worker died of memory exhaustion.
	KindOOM = "oom"
	// KindHang: the per-evaluation watchdog abandoned a wedged worker.
	KindHang = "hang"
)

// HangFault is the fault value the watchdog substitutes for an attempt
// that produced no result within the wall-clock limit. It classifies
// transient (a retry on a healthy worker may succeed) and carries the
// KindHang label for per-kind retry budgets.
type HangFault struct {
	// Key is the canonical assignment key of the hung evaluation.
	Key string
	// After is the watchdog limit the attempt exceeded.
	After time.Duration
}

func (h *HangFault) Error() string {
	return fmt.Sprintf("resilience: evaluation of %q hung (no result after %v); worker abandoned", h.Key, h.After)
}

// FaultKind labels the fault for per-kind retry budgets.
func (h *HangFault) FaultKind() string { return KindHang }

// FaultKindOf labels a recovered fault value. A value implementing
// `FaultKind() string` names its own kind; otherwise the rendered
// message is matched against the scheduler-kill and OOM vocabularies
// the paper's pipeline meets on Derecho, falling back to KindGeneric.
func FaultKindOf(v any) string {
	if k, ok := v.(interface{ FaultKind() string }); ok {
		if s := k.FaultKind(); s != "" {
			return s
		}
	}
	msg := strings.ToLower(renderFault(v))
	switch {
	case strings.Contains(msg, "out of memory") || strings.Contains(msg, "oom") ||
		strings.Contains(msg, "cannot allocate"):
		return KindOOM
	case strings.Contains(msg, "sigterm") || strings.Contains(msg, "sigkill") ||
		strings.Contains(msg, "killed") || strings.Contains(msg, "preempt") ||
		strings.Contains(msg, "job limit") || strings.Contains(msg, "walltime") ||
		strings.Contains(msg, "wall-clock limit"):
		return KindSchedulerKill
	}
	return KindGeneric
}

// DefaultRetryBudgets returns the per-kind retry budgets implied by a
// base budget: scheduler kills get double (a requeue usually lands on a
// healthy allocation), OOM gets half but at least one (it usually
// recurs), hangs keep the base (a wedged worker is a coin flip). A
// non-positive base returns nil — no supervision, no budgets.
func DefaultRetryBudgets(base int) map[string]int {
	if base <= 0 {
		return nil
	}
	oom := base / 2
	if oom < 1 {
		oom = 1
	}
	return map[string]int{
		KindSchedulerKill: base * 2,
		KindOOM:           oom,
		KindHang:          base,
	}
}

// ParseRetryBudgets parses a "kind=N,kind=N" flag value (as accepted by
// prose tune -retries-by-class) into a per-kind budget map. Kinds are
// free-form; counts must be non-negative integers.
func ParseRetryBudgets(s string) (map[string]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || strings.TrimSpace(kv[0]) == "" {
			return nil, fmt.Errorf("resilience: bad retry budget %q (want kind=count)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("resilience: bad retry count in %q (want a non-negative integer)", part)
		}
		out[strings.TrimSpace(kv[0])] = n
	}
	return out, nil
}
