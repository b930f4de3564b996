package main

import (
	"fmt"
)

// closeWorkers unregisters the workers' sessions. Idempotent.
func (in *instance) closeWorkers() {
	for _, wk := range in.workers {
		if wk.g != nil {
			wk.g.Unregister()
			wk.g = nil
		}
	}
}

// closeSessions closes the workers' sessions, then releases the stalled
// reader and waits until it has unregistered. Idempotent.
func (in *instance) closeSessions() {
	in.closeWorkers()
	if in.release != nil {
		close(in.release)
		<-in.stalledDone
		in.release = nil
	}
}

// gate checks the instance at quiescence and tears it down. It returns one
// line per failed check; nil means the structure and its reclamation
// accounting are exactly what a correct run leaves behind:
//
//   - no arena faults (checked arenas count use-after-free dereferences);
//   - Len() equals the prefilled size and every key is present;
//   - after Drain, every retired object was freed (Retired == Freed);
//   - arena Live equals the linked nodes (plus one payload each with byte
//     values), so nothing leaked and nothing was freed twice;
//   - after the structure's own teardown nothing is live.
//
// A check that panics (a poisoned structure can fault on the walk) fails
// and ends the gate.
func (in *instance) gate() (fails []string) {
	d := in.s.SMR()
	arena := d.Arena()
	check := func(name string, fn func() error) {
		defer func() {
			if r := recover(); r != nil {
				fails = append(fails, fmt.Sprintf("%s: panicked: %v", name, r))
			}
		}()
		if err := fn(); err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", name, err))
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sessions", func() error { in.closeSessions(); return nil }},
		{"arena faults", func() error {
			if f := arena.Stats().Faults; f != 0 {
				return fmt.Errorf("%d detected use-after-free dereferences", f)
			}
			return nil
		}},
		{"size", func() error {
			if n := in.s.Len(); uint64(n) != in.w.size {
				return fmt.Errorf("Len() = %d, want %d", n, in.w.size)
			}
			return nil
		}},
		{"membership", func() error {
			g := in.s.Register()
			defer g.Unregister()
			missing, first := 0, uint64(0)
			for k := uint64(0); k < in.w.size; k++ {
				if !in.s.Contains(g, k) {
					if missing == 0 {
						first = k
					}
					missing++
				}
			}
			if missing > 0 {
				return fmt.Errorf("%d keys missing, first %d", missing, first)
			}
			return nil
		}},
		{"drain", func() error {
			d.Drain()
			if st := d.Stats(); st.Retired != st.Freed {
				return fmt.Errorf("Retired = %d, Freed = %d after Drain", st.Retired, st.Freed)
			}
			return nil
		}},
		{"live", func() error {
			cs := arena.ClassStats()
			var payloads int64
			for _, c := range cs[1:] {
				payloads += c.Live
			}
			linked := int64(in.s.Len())
			wantPayloads := int64(0)
			if in.w.valueSize > 0 {
				wantPayloads = linked
			}
			if cs[0].Live != linked || payloads != wantPayloads {
				return fmt.Errorf("arena Live = %d nodes + %d payloads, linked %d nodes + %d payloads",
					cs[0].Live, payloads, linked, wantPayloads)
			}
			return nil
		}},
		{"teardown", func() error {
			in.s.Drain()
			if live := arena.Stats().Live; live != 0 {
				return fmt.Errorf("arena Live = %d after teardown", live)
			}
			return nil
		}},
	}
	for _, st := range steps {
		if check(st.name, st.fn); len(fails) > 0 {
			break
		}
	}
	return fails
}
