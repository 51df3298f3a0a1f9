package image

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/obs"
)

// TestPipelineSharedProfiles checks the PipelineOptions.Profiles
// contract for every registered strategy: a pipeline handed one
// pre-recorded profile per probe kind bakes the image and reports the
// profiling runs of a pipeline that records its own, and runs no
// profiling phase itself. Pettis–Hansen is the exception and always
// profiles itself. All strategies share one profile per kind, so a heap
// profile translated for only one ID scheme would show up here.
func TestPipelineSharedProfiles(t *testing.T) {
	p := buildApp(t)
	base := PipelineOptions{Compiler: graal.DefaultConfig(), InstrumentedSeed: 7, OptimizedSeed: 9}
	profiles := make(map[graal.Instrumentation]*Profile)
	for _, kind := range []graal.Instrumentation{graal.InstrNone, graal.InstrCU, graal.InstrMethod, graal.InstrHeap} {
		prof, err := RecordProfile(p, base, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if prof.Run.Instr != kind {
			t.Errorf("%v profile reports a %v run", kind, prof.Run.Instr)
		}
		profiles[kind] = prof
	}
	if got := len(profiles[graal.InstrHeap].Heap); got != len(core.HeapStrategies()) {
		t.Errorf("heap profile translated for %d ID schemes, want %d", got, len(core.HeapStrategies()))
	}

	for _, strategy := range core.StrategyNames() {
		opts := base
		opts.Strategy = strategy
		own, err := BuildOptimized(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		r := obs.NewRegistry()
		opts.Profiles, opts.Obs = profiles, r
		shared, err := BuildOptimized(p, opts)
		if err != nil {
			t.Fatalf("%s shared: %v", strategy, err)
		}
		if !reflect.DeepEqual(own.Runs, shared.Runs) {
			t.Errorf("%s: runs %+v, shared %+v", strategy, own.Runs, shared.Runs)
		}
		if a, b := recipeBytes(t, own.Optimized), recipeBytes(t, shared.Optimized); !bytes.Equal(a, b) {
			t.Errorf("%s: shared profiles change the recipe", strategy)
		}
		if a, b := layoutOf(own.Optimized), layoutOf(shared.Optimized); a != b {
			t.Errorf("%s: shared profiles change the layout", strategy)
		}
		var profiled []string
		for _, sp := range r.Snapshot().Spans {
			if strings.HasSuffix(sp.Name, ".profiling_run") || strings.HasPrefix(sp.Name, "image.instrumented.") {
				profiled = append(profiled, sp.Name)
			}
		}
		if want := strategy == core.StrategyPettisHansen; (len(profiled) > 0) != want {
			t.Errorf("%s: profiling spans %v with shared profiles (want profiling: %t)", strategy, profiled, want)
		}
	}
}

func recipeBytes(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecipe(&buf, RecipeOf(img)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// layoutOf renders both sections' layouts: CU signatures and object
// sequence IDs with their offsets.
func layoutOf(img *Image) string {
	var sb strings.Builder
	for _, cu := range img.CULayout {
		fmt.Fprintf(&sb, "%s@%d\n", cu.Signature(), img.CUOffset[cu])
	}
	for _, o := range img.ObjLayout {
		fmt.Fprintf(&sb, "#%d@%d\n", o.SeqID, o.Offset)
	}
	return sb.String()
}
