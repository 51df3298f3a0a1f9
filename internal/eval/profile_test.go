package eval

import (
	"reflect"
	"testing"

	"nimage/internal/workloads"
)

// profileTestWorkloads are one AWFY program and one microservice: both
// dump modes and both run endings (completion, first response).
func profileTestWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, n := range []string{"Sieve", "micronaut"} {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// measureAll measures every eval strategy of every workload, in the given
// strategy order, and returns the outcomes keyed by workload and
// strategy.
func measureAll(t *testing.T, h *Harness, ws []workloads.Workload, strategies []string) map[string]*StrategyOutcome {
	t.Helper()
	out := make(map[string]*StrategyOutcome)
	for _, w := range ws {
		for _, s := range strategies {
			o, err := h.MeasureStrategy(w, s)
			if err != nil {
				t.Fatal(err)
			}
			out[w.Name+"/"+s] = o
		}
	}
	return out
}

func profileTestConfig(builds, workers int, observe bool) Config {
	cfg := DefaultConfig()
	cfg.Builds = builds
	cfg.Iterations = 1
	cfg.Workers = workers
	cfg.Observe = observe
	return cfg
}

// TestProfilingSharedPerProbeKind: the nine eval strategies of one build
// need four distinct profiling phases — one CU, one method and one heap
// run plus one graph recording — and the harness performs exactly those,
// not one per pipeline (ten).
func TestProfilingSharedPerProbeKind(t *testing.T) {
	ws := profileTestWorkloads(t)
	h := NewHarness(profileTestConfig(2, 2, false))
	measureAll(t, h, ws, Strategies())
	const perBuild = 4
	if got, want := h.sched.profilingRuns.Load(), int64(perBuild*h.Cfg.Builds*len(ws)); got != want {
		t.Errorf("%d profiling runs, want %d (%d per build)", got, want, perBuild)
	}
}

// TestSharedProfilesDoNotLeak: sharing a profile across strategies must
// not let one strategy's state reach another. Every outcome is identical
// whichever strategy requests a profile first (registry vs reverse
// order), for every worker count, when all strategies request at once,
// and to an observed harness, which shares nothing.
func TestSharedProfilesDoNotLeak(t *testing.T) {
	ws := profileTestWorkloads(t)
	forward := Strategies()
	reverse := make([]string, len(forward))
	for i, s := range forward {
		reverse[len(forward)-1-i] = s
	}
	// One build suffices here: TestProfilingSharedPerProbeKind covers
	// the build in the sharing key.
	ref := measureAll(t, NewHarness(profileTestConfig(1, 2, true)), ws, forward)
	runs := []struct {
		name       string
		workers    int
		strategies []string
		concurrent bool
	}{
		{"registry order, 1 worker", 1, forward, false},
		{"reverse order, 1 worker", 1, reverse, false},
		{"concurrent, 2 workers", 2, reverse, true},
	}
	for _, run := range runs {
		h := NewHarness(profileTestConfig(1, run.workers, false))
		if run.concurrent {
			if err := h.Prefetch(ws, run.strategies); err != nil {
				t.Fatal(err)
			}
		}
		got := measureAll(t, h, ws, run.strategies)
		for key, want := range ref {
			if a, b := simulated(got[key]), simulated(want); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: %s differs from the unshared reference:\n got %+v\nwant %+v", run.name, key, a, b)
			}
		}
	}
}

// simulated strips an outcome down to its simulated results: the
// observation payloads only an observed harness attaches are dropped.
func simulated(o *StrategyOutcome) StrategyOutcome {
	c := *o
	c.Pipeline = nil
	c.Measures = make([]RunMeasure, len(o.Measures))
	for i, m := range o.Measures {
		m.Report, m.Attrib, m.Affinity, m.Scorecard = nil, nil, nil, nil
		c.Measures[i] = m
	}
	return c
}
