package bench

import (
	"fmt"
	"strings"
	"time"
)

// Phase is one segment of a shifting workload: a named regime and how long
// it lasts.
type Phase struct {
	// Name is "churn" (100% updates), "read" (lookups only) or "stall"
	// (100% updates with a reader parked mid-protection — the Appendix-A
	// scenario arriving in the middle of a live workload).
	Name string
	Dur  time.Duration
}

// ParsePhases parses the drivers' -phases flag: a comma-separated list of
// name:duration segments, e.g. "churn:3s,read:3s,stall:3s".
func ParsePhases(s string) ([]Phase, error) {
	if s == "" {
		return nil, nil
	}
	var out []Phase
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, durStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad -phases segment %q: want name:duration", part)
		}
		switch name {
		case "churn", "read", "stall":
		default:
			return nil, fmt.Errorf("bad -phases segment %q: name must be churn, read or stall", part)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -phases segment %q: %q is not a positive duration", part, durStr)
		}
		out = append(out, Phase{Name: name, Dur: d})
	}
	return out, nil
}
