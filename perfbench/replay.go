package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/osim"
	"nimage/internal/postproc"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// replayRequests is how many requests the replay sends a serve program
// after its startup, to count the vm steps of the request path.
const replayRequests = 200

// layerCounts accumulates the counts and simulated outcomes of one layer
// replay; host times come from its spans.
type layerCounts struct {
	n map[string]float64
	// stageNanos sums the image builder's own stage spans by stage.
	stageNanos map[string]int64
	// runNanos and runSteps time the cold and request runs for
	// vm.ns_per_step.
	runNanos, runSteps   int64
	codeMatch, heapMatch []float64
	faultFactor, speedup map[string][]float64
	fileKB               []float64
}

func newLayerCounts() *layerCounts {
	return &layerCounts{
		n:           map[string]float64{},
		stageNanos:  map[string]int64{},
		faultFactor: map[string][]float64{},
		speedup:     map[string][]float64{},
	}
}

// slug turns a strategy or scheme name into a metric-name component.
func slug(s string) string {
	s = strings.ReplaceAll(s, "+", "-")
	return strings.ReplaceAll(s, " ", "-")
}

// build runs one traced image build with the builder's stage spans on and
// folds the stage durations into lc.
func (lc *layerCounts) build(tr *tracer, parent int, p *ir.Program, opts image.Options) (*image.Image, error) {
	r := obs.NewRegistry()
	opts.Obs = r
	var img *image.Image
	var err error
	tr.call(parent, "image.build."+opts.Kind.String(), func() { img, err = image.Build(p, opts) })
	if err != nil {
		return nil, err
	}
	prefix := "image." + opts.Kind.String() + "."
	for _, sp := range r.Snapshot().Spans {
		if stage, ok := strings.CutPrefix(sp.Name, prefix); ok {
			lc.stageNanos[stage] += sp.DurationNanos
		}
	}
	if opts.Kind == image.KindRegular {
		lc.n["heap.objects"] += float64(len(img.ObjLayout))
		lc.fileKB = append(lc.fileKB, float64(img.FileSize)/1024)
	}
	return img, nil
}

// coldRun runs an image cold inside a vm.cold_run span.
func (lc *layerCounts) coldRun(tr *tracer, parent int, img *image.Image, w workloads.Workload) (image.Stats, error) {
	var st image.Stats
	var steps int64
	var err error
	t0 := time.Now()
	tr.call(parent, "vm.cold_run", func() { _, st, steps, err = coldRun(img, w) })
	lc.runNanos += time.Since(t0).Nanoseconds()
	lc.runSteps += steps
	lc.n["vm.steps.cold"] += float64(steps)
	for _, sf := range []osim.SectionFaults{st.TextFaults, st.HeapFaults} {
		lc.n["osim.major_faults"] += float64(sf.Major)
		lc.n["osim.minor_faults"] += float64(sf.Minor)
	}
	lc.n["osim.io_ms"] += float64(st.IOTime.Nanoseconds()) / 1e6
	lc.n["vm.cpu_ms"] += float64(st.CPUTime.Nanoseconds()) / 1e6
	return st, err
}

// countingAnalysis counts the events postproc dispatches.
type countingAnalysis struct{ n int }

func (a *countingAnalysis) Name() string            { return "count" }
func (a *countingAnalysis) Visit(ev postproc.Event) { a.n++ }

// profile builds an instrumented image, runs it under the tracer's hooks
// and decodes its traces into the given analysis.
func (lc *layerCounts) profile(tr *tracer, parent int, w workloads.Workload, p *ir.Program, instr graal.Instrumentation, a postproc.Analysis) (*image.Image, error) {
	img, err := lc.build(tr, parent, p, image.Options{
		Kind: image.KindInstrumented, Compiler: compilerConfig(), Instr: instr,
		Mode: dumpMode(w), BuildSeed: instrumentedSeed,
	})
	if err != nil {
		return nil, err
	}
	t := profiler.NewTracer(instr, dumpMode(w))
	t.MethodIdx = img.Table.Index
	t.Numberings = img.Numberings
	t.ObjectHandle = img.ObjectHandle
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), t.Hooks())
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	t.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = w.Service
	tr.call(parent, "profiler.run", func() { err = proc.Run(w.Args...) })
	if err != nil {
		return nil, fmt.Errorf("profiling run of %s: %w", w.Name, err)
	}
	lc.n["vm.steps.profiling"] += float64(proc.Machine.Steps)
	var traces []profiler.ThreadTrace
	tr.call(parent, "profiler.finish", func() { traces = t.Finish(w.Service) })
	for _, tt := range traces {
		lc.n["profiler.trace_words"] += float64(len(tt.Words))
	}
	count := &countingAnalysis{}
	tr.call(parent, "postproc.dispatch", func() {
		err = postproc.Dispatch(traces, img.Table, img.Numberings, a, count)
	})
	lc.n["postproc.events"] += float64(count.n)
	return img, err
}

// record runs the regular image with the co-access recorder on and, for
// serve programs, sends requests after the startup response. It returns
// the recorded graph the graph layouts order from.
func (lc *layerCounts) record(tr *tracer, parent int, img *image.Image, w workloads.Workload) (*affinity.Graph, error) {
	o := osim.NewOS(osim.SSD())
	o.TrackAffinity = true
	proc, err := img.NewProcess(o, vm.Hooks{})
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	proc.Machine.StopOnRespond = w.Service
	t0 := time.Now()
	tr.call(parent, "vm.cold_run", func() { err = proc.Run(w.Args...) })
	lc.runNanos += time.Since(t0).Nanoseconds()
	lc.runSteps += proc.Machine.Steps
	lc.n["vm.steps.cold"] += float64(proc.Machine.Steps)
	if err != nil {
		return nil, err
	}
	if w.Serve != nil {
		cls := img.Program.Class(w.Serve.DispatchClass)
		if cls == nil {
			return nil, fmt.Errorf("%s: dispatch class %s missing", w.Name, w.Serve.DispatchClass)
		}
		meth := cls.LookupMethod(w.Serve.DispatchMethod)
		if meth == nil {
			return nil, fmt.Errorf("%s: dispatch method %s missing", w.Name, w.Serve.DispatchMethod)
		}
		steps0 := proc.Machine.Steps
		t0 := time.Now()
		tr.call(parent, "vm.requests", func() {
			for k := 0; k < replayRequests && err == nil; k++ {
				_, err = proc.Machine.RunMethod(meth, heap.IntVal(int64(k%w.Serve.Routes)))
			}
		})
		lc.runNanos += time.Since(t0).Nanoseconds()
		lc.runSteps += proc.Machine.Steps - steps0
		lc.n["vm.steps.request"] += float64(proc.Machine.Steps - steps0)
		if err != nil {
			return nil, fmt.Errorf("%s request: %w", w.Name, err)
		}
	}
	g := proc.AffinityGraph()
	if g == nil {
		return nil, fmt.Errorf("%s: recording run produced no affinity graph", w.Name)
	}
	return g, nil
}

// replay walks one pass of the pipeline layer by layer, through each
// layer's public functions, for every program: compile, encode and decode
// the IR, build the regular image and run it cold, profile it under each
// probe kind, assign heap IDs and order code and objects, build, run and
// round-trip one optimized image per cold-start layout.
func replay(tr *tracer, parent int, progs []workloads.Workload) (*layerCounts, error) {
	lc := newLayerCounts()
	for _, w := range progs {
		if err := lc.replayProgram(tr, parent, w); err != nil {
			return nil, fmt.Errorf("replay of %s: %w", w.Name, err)
		}
	}
	return lc, nil
}

func (lc *layerCounts) replayProgram(tr *tracer, parent int, w workloads.Workload) error {
	p := w.Build()
	cfg := compilerConfig()

	var reach *graal.Reachability
	var comp *graal.Compilation
	tr.call(parent, "graal.analyze", func() { reach = graal.Analyze(p, cfg) })
	tr.call(parent, "graal.assemble", func() { comp = graal.Assemble(p, cfg, graal.InstrNone, false, reach) })
	lc.n["graal.cus"] += float64(len(comp.CUs))
	lc.n["graal.reachable_methods"] += float64(len(reach.MethodOrder))

	var buf bytes.Buffer
	var err error
	tr.call(parent, "ir.encode", func() { err = ir.EncodeProgram(&buf, p) })
	if err != nil {
		return err
	}
	tr.call(parent, "ir.decode", func() { _, err = ir.DecodeProgram(&buf) })
	if err != nil {
		return err
	}
	for _, m := range p.Methods() {
		for _, b := range m.Blocks {
			lc.n["ir.instrs"] += float64(len(b.Instrs))
		}
	}

	reg, err := lc.build(tr, parent, p, image.Options{Kind: image.KindRegular, Compiler: cfg, BuildSeed: regularSeed})
	if err != nil {
		return err
	}
	base, err := lc.coldRun(tr, parent, reg, w)
	if err != nil {
		return err
	}
	g, err := lc.record(tr, parent, reg, w)
	if err != nil {
		return err
	}

	cuA, methodA, heapA := postproc.NewCUOrderAnalysis(), postproc.NewMethodOrderAnalysis(), postproc.NewHeapOrderAnalysis()
	if _, err := lc.profile(tr, parent, w, p, graal.InstrCU, cuA); err != nil {
		return err
	}
	if _, err := lc.profile(tr, parent, w, p, graal.InstrMethod, methodA); err != nil {
		return err
	}
	heapImg, err := lc.profile(tr, parent, w, p, graal.InstrHeap, heapA)
	if err != nil {
		return err
	}

	// Each layout's build options, from the layers' own orderers.
	codeProfile := map[string][]string{
		core.StrategyCU:     cuA.Profile(),
		core.StrategyMethod: methodA.Profile(),
	}
	tr.call(parent, "core.order.cu", func() { core.OrderCUs(reg.Comp.CUs, codeProfile[core.StrategyCU]) })
	tr.call(parent, "core.order.method", func() { core.OrderCUs(reg.Comp.CUs, codeProfile[core.StrategyMethod]) })
	for _, o := range []struct {
		name  string
		order func(*affinity.Graph) []string
	}{
		{core.StrategyC3, core.C3Order},
		{core.StrategyExtTSP, core.ExtTSPOrder},
		{core.StrategySLOSearch, core.SLOSearchOrder},
	} {
		tr.call(parent, "core.order."+slug(o.name), func() { codeProfile[o.name] = o.order(g) })
	}
	heapProfile := map[string][]uint64{}
	heapScheme := map[string]core.HeapStrategy{}
	for _, hs := range core.HeapStrategies() {
		name := hs.Name()
		heapScheme[name] = hs
		heapProfile[name] = heapA.Profile(func(h uint64) (uint64, bool) { return heapImg.StrategyIDOfHandle(name, h) })
		var ids map[*heap.Object]uint64
		tr.call(parent, "core.assign_ids."+slug(name), func() { ids = hs.AssignIDs(reg.Snapshot) })
		tr.call(parent, "core.order."+slug(name), func() { core.OrderObjects(reg.Snapshot.Objects, ids, heapProfile[name]) })
	}

	for _, s := range evalLayouts() {
		info, _ := core.StrategyByName(s)
		opts := image.Options{Kind: image.KindOptimized, Compiler: cfg, BuildSeed: optimizedSeed}
		switch {
		case s == core.StrategyCombined:
			opts.CodeProfile = codeProfile[core.StrategyCU]
			opts.HeapProfile = heapProfile[core.StrategyHeapPath]
			opts.HeapStrategy = heapScheme[core.StrategyHeapPath]
		case info.Heap:
			opts.HeapProfile = heapProfile[s]
			opts.HeapStrategy = heapScheme[s]
		default:
			opts.CodeProfile = codeProfile[s]
		}
		img, err := lc.build(tr, parent, p, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		if len(opts.CodeProfile) > 0 {
			lc.codeMatch = append(lc.codeMatch, float64(img.CodeOrderStats.Matched)/float64(len(opts.CodeProfile)))
		}
		if opts.HeapStrategy != nil && len(opts.HeapProfile) > 0 {
			lc.heapMatch = append(lc.heapMatch, img.HeapMatchStats.MatchRate())
		}
		st, err := lc.coldRun(tr, parent, img, w)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		lc.faultFactor[s] = append(lc.faultFactor[s], sectionFaults(info, base)/sectionFaults(info, st))
		lc.speedup[s] = append(lc.speedup[s], startMillis(base, w.Service)/startMillis(st, w.Service))

		var rbuf bytes.Buffer
		tr.call(parent, "image.write_recipe", func() { err = image.WriteRecipe(&rbuf, image.RecipeOf(img)) })
		if err != nil {
			return err
		}
		var rc image.Recipe
		tr.call(parent, "image.read_recipe", func() { rc, err = image.ReadRecipe(&rbuf) })
		if err != nil {
			return err
		}
		tr.call(parent, "image.bake", func() { _, err = rc.Bake() })
		if err != nil {
			return err
		}
	}
	return nil
}

// sectionFaults is the fault count a layout is judged by: the sections it
// claims to reorder, as the figures charge it.
func sectionFaults(info core.StrategyInfo, st image.Stats) float64 {
	switch {
	case info.Text && info.Heap:
		return float64(st.TextFaults.Total() + st.HeapFaults.Total())
	case info.Text:
		return float64(st.TextFaults.Total())
	default:
		return float64(st.HeapFaults.Total())
	}
}
