package workloads

import (
	"testing"

	"nimage/internal/vm"
)

// TestAllWorkloadsBuildAndRun builds every workload program and executes
// it bare (no image) to completion or first response, checking for traps.
func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build()
			if p.Entry() == nil {
				t.Fatal("no entry")
			}
			m := vm.New(p)
			m.StopOnRespond = w.Service
			// Class initializers run first (bare-metal approximation of
			// the build-time init), triggered on demand.
			m.AutoClinit = true
			for _, c := range p.Classes {
				if err := m.RunClassInit(c); err != nil {
					t.Fatalf("clinit of %s: %v", c.Name, err)
				}
			}
			m.AutoClinit = false
			initSteps := m.Steps
			if err := m.RunProgram(w.Args...); err != nil {
				t.Fatalf("run: %v", err)
			}
			runSteps := m.Steps - initSteps
			t.Logf("%s: classes=%d methods=%d clinitSteps=%d runSteps=%d",
				w.Name, len(p.Classes), p.NumMethods(), initSteps, runSteps)
			if runSteps < 3_000 {
				t.Errorf("workload too small: %d steps", runSteps)
			}
			if runSteps > 3_000_000 {
				t.Errorf("workload too large: %d steps", runSteps)
			}
			if w.Service && !m.Responded {
				t.Error("service did not respond")
			}
		})
	}
}

// TestMethodSignaturesUnique guards the code layout's sort keys: CUs,
// method tables and code profiles are ordered and matched by signature,
// which determines one order only if no two methods share a signature.
func TestMethodSignaturesUnique(t *testing.T) {
	ws := append(All(), Serve()...)
	for _, seed := range []uint64{1, 2, 42, 1009, 9999} {
		ws = append(ws, Generated(seed))
	}
	for _, w := range ws {
		seen := make(map[string]bool)
		for _, m := range w.Build().Methods() {
			sig := m.Signature()
			if seen[sig] {
				t.Errorf("%s: duplicate method signature %s", w.Name, sig)
			}
			seen[sig] = true
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("Bounce")
	if err != nil || w.Name != "Bounce" {
		t.Fatalf("ByName: %v %v", w, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadCounts(t *testing.T) {
	if len(AWFY()) != 14 {
		t.Errorf("AWFY = %d, want 14", len(AWFY()))
	}
	if len(Microservices()) != 3 {
		t.Errorf("microservices = %d, want 3", len(Microservices()))
	}
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestDeterministicConstruction: building the same workload twice yields
// programs with identical class/method structure.
func TestDeterministicConstruction(t *testing.T) {
	a := buildBounce()
	b := buildBounce()
	if len(a.Classes) != len(b.Classes) {
		t.Fatalf("class counts differ: %d vs %d", len(a.Classes), len(b.Classes))
	}
	for i := range a.Classes {
		if a.Classes[i].Name != b.Classes[i].Name {
			t.Fatalf("class %d: %s vs %s", i, a.Classes[i].Name, b.Classes[i].Name)
		}
		if len(a.Classes[i].Methods) != len(b.Classes[i].Methods) {
			t.Fatalf("method counts differ in %s", a.Classes[i].Name)
		}
	}
}
