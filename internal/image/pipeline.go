package image

import (
	"fmt"
	"time"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/osim"
	"nimage/internal/postproc"
	"nimage/internal/profiler"
	"nimage/internal/vm"
)

// vmHooks/vmCompose keep the hook plumbing readable.
type vmHooks = vm.Hooks

var vmCompose = vm.ComposeHooks

// PipelineOptions configures the full profile-guided methodology of Fig. 1:
// instrumented build → profiling run → post-processing → optimized build.
type PipelineOptions struct {
	Compiler graal.Config
	// Strategy is one of the registered core.Strategy* names (see
	// core.Registry), e.g. "cu", "heap path", "cu+heap path", "c3".
	Strategy string
	// InstrumentedSeed / OptimizedSeed are the build seeds of the two
	// builds; they differ in practice, which is exactly what makes object
	// matching hard (Sec. 5).
	InstrumentedSeed uint64
	OptimizedSeed    uint64
	// Mode selects the trace-buffer dump mode of the profiling run.
	Mode profiler.DumpMode
	// Args are the program arguments of the profiling run.
	Args []int64
	// Service marks microservice workloads: the profiling run stops at the
	// first response and is then killed with SIGKILL (Sec. 7.1), so
	// DumpOnFull buffers are lost.
	Service bool
	// MaxPaths bounds per-method path counts.
	MaxPaths uint64
	// Obs, when non-nil, is threaded into both builds, the tracer, and the
	// profiling run, and additionally receives per-phase pipeline spans
	// ("pipeline.<strategy>.profiling_run" / ".postprocess") and trace-size
	// gauges.
	Obs *obs.Registry
	// AffinityGraph is the recorded co-access graph consumed by the graph
	// strategies ("c3", "ext-tsp"). When nil, the pipeline records one
	// itself: a regular build at InstrumentedSeed executed with affinity
	// tracking — an uninstrumented profiling run, so graph strategies pay
	// no probe inflation. Callers with a serve-phase recording (the eval
	// harness) pass it here so the layout optimizes burst residency
	// rather than startup.
	AffinityGraph *affinity.Graph
	// Profiles supplies pre-recorded profiling phases (RecordProfile)
	// keyed by probe kind; graal.InstrNone keys the graph strategies'
	// recording, which AffinityGraph overrides. A probe kind found here is
	// not recorded again, so callers baking several strategies of one
	// build profile each kind once. Each entry must have been recorded
	// with these options' Compiler, InstrumentedSeed, Mode, Args, Service
	// and MaxPaths. When nil, the pipeline records everything itself. The
	// Pettis–Hansen baseline ignores it: its run carries its own
	// call-graph collector.
	Profiles map[graal.Instrumentation]*Profile
	// CodeOrder, when non-nil, overrides the "slo-search" strategy's text
	// ordering with a caller-resolved winner (the eval harness injects the
	// measured layout-search result here). Other strategies ignore it;
	// slo-search without it runs the standalone graph-scored search.
	CodeOrder []string
}

// ProfilingRun reports the instrumented execution (for the overhead
// evaluation of Sec. 7.4).
type ProfilingRun struct {
	Instr graal.Instrumentation
	Mode  profiler.DumpMode
	// Time is the simulated end-to-end (or to-first-response) time of the
	// instrumented run, including profiling overhead.
	Time time.Duration
	// CPUTime is the compute share of Time (the overhead table compares
	// compute times, Sec. 7.4).
	CPUTime time.Duration
	// TraceWords counts the 64-bit words that reached the trace files.
	TraceWords int
}

// PipelineResult is the outcome of BuildOptimized.
type PipelineResult struct {
	// Optimized is the profile-guided image.
	Optimized *Image
	// Runs lists the profiling executions the profiles come from (one, or
	// two for the combined strategy), whether performed by this call or
	// taken from PipelineOptions.Profiles.
	Runs []ProfilingRun
	// CodeProfile / HeapProfile are the ordering profiles fed to the
	// optimized build.
	CodeProfile []string
	HeapProfile []uint64
}

// InstrumentationFor maps a strategy name to the instrumentation its
// profiling build needs (the mapping the pipeline applies internally);
// the verifier uses it to rebuild the pipeline's instrumented image.
// Strategies without exactly one probe kind — the combined strategy (two
// kinds) and the graph strategies (none) — are an error; enumerate their
// kinds via core.StrategyByName instead.
func InstrumentationFor(strategy string) (graal.Instrumentation, error) {
	return strategyInstr(strategy)
}

// strategyInstr maps a strategy name to the instrumentation it needs,
// resolved through the strategy registry.
func strategyInstr(strategy string) (graal.Instrumentation, error) {
	info, ok := core.StrategyByName(strategy)
	if !ok {
		return 0, fmt.Errorf("image: unknown strategy %q", strategy)
	}
	if len(info.Instr) != 1 {
		return 0, fmt.Errorf("image: strategy %q has no single probe kind", strategy)
	}
	return info.Instr[0], nil
}

// composePH merges the PH call-graph collector into the tracer hooks.
func composePH(h vmHooks, g *core.CallGraph) vmHooks {
	return vmCompose(h, g.Collector())
}

// heapStrategyByName returns the identity strategy with the given name.
func heapStrategyByName(name string) core.HeapStrategy {
	for _, s := range core.HeapStrategies() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// Profile is the outcome of one profiling phase of Fig. 1: the build at
// InstrumentedSeed, its profiling run and the post-processed ordering
// input. It depends on the probe kind and the build inputs only, never on
// the strategy that consumes it — the heap ID scheme matters only when
// the optimized build matches objects (Sec. 5), so the heap profile is
// kept translated for every scheme. Every strategy of one build that
// needs the same probe kind can therefore share one Profile.
type Profile struct {
	Run ProfilingRun
	// Code is the code-ordering profile of an InstrCU or InstrMethod run.
	Code []string
	// Heap is the heap-ordering profile of an InstrHeap run, translated
	// for every identity scheme of core.HeapStrategies and keyed by the
	// scheme's name.
	Heap map[string][]uint64
	// Graph is the co-access graph of an InstrNone recording run.
	Graph *affinity.Graph
}

// RecordProfile runs the profiling phase of one probe kind with the
// options' build inputs (Compiler, InstrumentedSeed, Mode, Args, Service,
// MaxPaths) and returns its outcome for PipelineOptions.Profiles.
// graal.InstrNone records the graph strategies' affinity graph on a
// regular build instead of tracing an instrumented one. Spans and gauges
// on opts.Obs are named after opts.Strategy.
func RecordProfile(p *ir.Program, opts PipelineOptions, instr graal.Instrumentation) (*Profile, error) {
	if instr == graal.InstrNone {
		return recordGraph(p, opts)
	}
	return profileOnce(p, opts, instr, opts.Strategy)
}

// BuildOptimized runs the full pipeline for one strategy and returns the
// optimized image. The combined "cu+heap path" strategy performs two
// profiling runs — one CU-instrumented, one heap-instrumented — and feeds
// both profiles to the optimizing build (Sec. 7.1). Probe kinds present in
// opts.Profiles are taken from there instead of being recorded again.
func BuildOptimized(p *ir.Program, opts PipelineOptions) (*PipelineResult, error) {
	res := &PipelineResult{}
	// collect takes the profile of the single probe kind of strategy and
	// keeps the part strategy consumes.
	collect := func(strategy string) error {
		instr, err := strategyInstr(strategy)
		if err != nil {
			return err
		}
		prof := opts.Profiles[instr]
		if prof == nil {
			if prof, err = profileOnce(p, opts, instr, strategy); err != nil {
				return err
			}
		}
		res.Runs = append(res.Runs, prof.Run)
		if instr == graal.InstrHeap {
			res.HeapProfile = prof.Heap[strategy]
		} else {
			res.CodeProfile = prof.Code
		}
		return nil
	}

	optOpts := Options{
		Kind:      KindOptimized,
		Compiler:  opts.Compiler,
		BuildSeed: opts.OptimizedSeed,
		MaxPaths:  opts.MaxPaths,
		Obs:       opts.Obs,
	}
	switch {
	case opts.Strategy == core.StrategyPettisHansen:
		run, code, err := profilePettisHansen(p, opts)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, run)
		res.CodeProfile = code
	case opts.Strategy == core.StrategyCombined:
		if err := collect(core.StrategyCU); err != nil {
			return nil, err
		}
		if err := collect(core.StrategyHeapPath); err != nil {
			return nil, err
		}
		optOpts.HeapStrategy = heapStrategyByName(core.StrategyHeapPath)
	case core.IsGraphStrategy(opts.Strategy):
		run, code, err := profileGraph(p, opts)
		if err != nil {
			return nil, err
		}
		if run != nil {
			res.Runs = append(res.Runs, *run)
		}
		res.CodeProfile = code
	default:
		if err := collect(opts.Strategy); err != nil {
			return nil, err
		}
		optOpts.HeapStrategy = heapStrategyByName(opts.Strategy)
	}
	optOpts.CodeProfile = res.CodeProfile
	optOpts.HeapProfile = res.HeapProfile

	opt, err := Build(p, optOpts)
	if err != nil {
		return nil, err
	}
	res.Optimized = opt
	return res, nil
}

// profileGraph resolves a graph strategy's code profile: order the
// affinity graph's text symbols with the strategy's chain-merging
// algorithm. The graph is the caller's AffinityGraph, else the InstrNone
// entry of Profiles, else a recording of its own (recordGraph), so graph
// strategies bake standalone, exactly like the trace strategies. The
// returned run is nil for a caller-provided AffinityGraph. The resulting
// profile is plain CU signatures, so the optimized build and the .nimg
// recipe treat graph strategies identically to "cu".
func profileGraph(p *ir.Program, opts PipelineOptions) (*ProfilingRun, []string, error) {
	g := opts.AffinityGraph
	var run *ProfilingRun
	if g == nil {
		rec := opts.Profiles[graal.InstrNone]
		if rec == nil {
			var err error
			if rec, err = recordGraph(p, opts); err != nil {
				return nil, nil, err
			}
		}
		r := rec.Run
		g, run = rec.Graph, &r
	}
	sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".postprocess")
	defer sp.End()
	var profile []string
	switch opts.Strategy {
	case core.StrategyC3:
		profile = core.C3Order(g)
	case core.StrategyExtTSP:
		profile = core.ExtTSPOrder(g)
	case core.StrategySLOSearch:
		if opts.CodeOrder != nil {
			profile = append([]string(nil), opts.CodeOrder...)
		} else {
			profile = core.SLOSearchOrder(g)
		}
	default:
		return nil, nil, fmt.Errorf("image: unknown graph strategy %q", opts.Strategy)
	}
	if r := opts.Obs; r.Enabled() {
		r.Gauge("pipeline." + opts.Strategy + ".profile_symbols").Set(float64(len(profile)))
	}
	return run, profile, nil
}

// recordGraph records the graph strategies' affinity graph: a *regular*
// build at InstrumentedSeed run to completion (or first response) with
// affinity tracking — the graph analogue of profileOnce, but without
// probe inflation.
func recordGraph(p *ir.Program, opts PipelineOptions) (*Profile, error) {
	img, err := Build(p, Options{
		Kind:      KindRegular,
		Compiler:  opts.Compiler,
		BuildSeed: opts.InstrumentedSeed,
		MaxPaths:  opts.MaxPaths,
		Obs:       opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("image: recording build: %w", err)
	}
	sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".profiling_run")
	scratch := osim.NewOS(osim.SSD())
	scratch.TrackAffinity = true
	proc, err := img.NewProcess(scratch, vmHooks{})
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	proc.Machine.StopOnRespond = opts.Service
	if err := proc.Run(opts.Args...); err != nil {
		return nil, fmt.Errorf("image: recording run: %w", err)
	}
	prof := &Profile{Run: runStats(proc, opts, graal.InstrNone), Graph: proc.AffinityGraph()}
	sp.End()
	if prof.Graph == nil {
		return nil, fmt.Errorf("image: %s: recording run produced no affinity graph", opts.Strategy)
	}
	return prof, nil
}

// runStats reports a finished profiling or recording run.
func runStats(proc *Process, opts PipelineOptions, instr graal.Instrumentation) ProfilingRun {
	run := ProfilingRun{Instr: instr, Mode: opts.Mode}
	st := proc.Stats()
	if opts.Service && st.TimeToResponse > 0 {
		run.Time = st.TimeToResponse
	} else {
		run.Time = st.Total
	}
	if opts.Service {
		run.CPUTime = time.Duration(proc.Machine.RespondTimeNanos())
	} else {
		run.CPUTime = st.CPUTime
	}
	return run
}

// profileOnce builds one instrumented image, executes it, and
// post-processes the traces into profiles: the code profile for
// InstrCU/InstrMethod, or the heap profile translated for every identity
// scheme for InstrHeap. label names the run's obs spans and gauges.
func profileOnce(p *ir.Program, opts PipelineOptions, instr graal.Instrumentation, label string) (*Profile, error) {
	run, img, traces, err := instrumentedRun(p, opts, instr, label, nil)
	if err != nil {
		return nil, err
	}
	sp := opts.Obs.StartSpan("pipeline." + label + ".postprocess")
	defer sp.End()
	prof := &Profile{Run: run}
	switch instr {
	case graal.InstrCU:
		a := postproc.NewCUOrderAnalysis()
		if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
			return nil, err
		}
		prof.Code = a.Profile()
	case graal.InstrMethod:
		a := postproc.NewMethodOrderAnalysis()
		if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
			return nil, err
		}
		prof.Code = a.Profile()
	default:
		a := postproc.NewHeapOrderAnalysis()
		if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
			return nil, err
		}
		prof.Heap = make(map[string][]uint64, len(img.StrategyIDs))
		for _, s := range core.HeapStrategies() {
			name := s.Name()
			prof.Heap[name] = a.Profile(func(h uint64) (uint64, bool) {
				return img.StrategyIDOfHandle(name, h)
			})
		}
	}
	return prof, nil
}

// profilePettisHansen profiles the Pettis–Hansen baseline. It needs edge
// frequencies rather than a first-execution trace, so it attaches its own
// call-graph collector to a CU-instrumented run and never shares it.
func profilePettisHansen(p *ir.Program, opts PipelineOptions) (ProfilingRun, []string, error) {
	callGraph := core.NewCallGraph()
	run, img, _, err := instrumentedRun(p, opts, graal.InstrCU, core.StrategyPettisHansen, callGraph)
	if err != nil {
		return run, nil, err
	}
	sp := opts.Obs.StartSpan("pipeline." + core.StrategyPettisHansen + ".postprocess")
	defer sp.End()
	order := core.PettisHansenOrder(img.Comp.CUs, callGraph)
	profile := make([]string, 0, len(order))
	for _, cu := range order {
		profile = append(profile, cu.Signature())
	}
	return run, profile, nil
}

// instrumentedRun builds the instrumented image of one probe kind,
// executes it, and returns the run report, the image and the flushed
// traces. callGraph, when non-nil, additionally collects call edges.
func instrumentedRun(p *ir.Program, opts PipelineOptions, instr graal.Instrumentation, label string, callGraph *core.CallGraph) (ProfilingRun, *Image, []profiler.ThreadTrace, error) {
	run := ProfilingRun{Instr: instr, Mode: opts.Mode}
	img, err := Build(p, Options{
		Kind:      KindInstrumented,
		Compiler:  opts.Compiler,
		Instr:     instr,
		Mode:      opts.Mode,
		BuildSeed: opts.InstrumentedSeed,
		MaxPaths:  opts.MaxPaths,
		Obs:       opts.Obs,
	})
	if err != nil {
		return run, nil, nil, fmt.Errorf("image: instrumented build: %w", err)
	}

	tr := profiler.NewTracer(instr, opts.Mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = img.Numberings
	tr.ObjectHandle = img.ObjectHandle
	tr.Obs = opts.Obs
	hooks := tr.Hooks()
	if callGraph != nil {
		hooks = composePH(hooks, callGraph)
	}

	// The profiling run executes on a scratch OS; its page faults are
	// irrelevant, but its simulated time (with profiling overhead) is the
	// overhead measurement of Sec. 7.4.
	sp := opts.Obs.StartSpan("pipeline." + label + ".profiling_run")
	scratch := osim.NewOS(osim.SSD())
	proc, err := img.NewProcess(scratch, hooks)
	if err != nil {
		return run, nil, nil, err
	}
	defer proc.Close()
	tr.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = opts.Service
	if err := proc.Run(opts.Args...); err != nil {
		return run, nil, nil, fmt.Errorf("image: profiling run: %w", err)
	}
	run = runStats(proc, opts, instr)

	traces := tr.Finish(opts.Service)
	for _, tt := range traces {
		run.TraceWords += len(tt.Words)
	}
	sp.End()
	if r := opts.Obs; r.Enabled() {
		r.Gauge("pipeline." + label + ".trace_words").Set(float64(run.TraceWords))
		r.Gauge("pipeline." + label + ".profiling_cpu_nanos").Set(float64(run.CPUTime.Nanoseconds()))
	}
	return run, img, traces, nil
}
