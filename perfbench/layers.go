package main

import (
	"strings"

	"nimage/internal/core"
)

// layerMetricNames lists every per-layer metric with its unit, in the
// order BENCHMARK.json lists them. Every workload reports all of them: the
// layer replay runs every layer on each workload's programs, and a layer
// that does no work on a workload (cross-tenant evictions outside fleet)
// reports a count of zero.
func layerMetricNames() [][2]string {
	m := [][2]string{
		{"workloads.build_ms", "ms"},
		{"graal.analyze_ms", "ms"},
		{"graal.assemble_ms", "ms"},
		{"graal.cus", "count"},
		{"graal.reachable_methods", "count"},
		{"ir.encode_ms", "ms"},
		{"ir.decode_ms", "ms"},
		{"ir.instrs", "count"},
		{"image.build_ms.regular", "ms"},
		{"image.build_ms.instrumented", "ms"},
		{"image.build_ms.optimized", "ms"},
	}
	for _, st := range imageStages {
		m = append(m, [2]string{"image." + st + "_ms", "ms"})
	}
	m = append(m,
		[2]string{"image.write_recipe_ms", "ms"},
		[2]string{"image.read_recipe_ms", "ms"},
		[2]string{"image.bake_ms", "ms"},
		[2]string{"image.file_kb", "kB"},
		[2]string{"heap.objects", "count"},
	)
	for _, hs := range core.HeapStrategies() {
		m = append(m, [2]string{"core.assign_ids_ms." + slug(hs.Name()), "ms"})
	}
	for _, s := range orderers() {
		m = append(m, [2]string{"core.order_ms." + slug(s), "ms"})
	}
	m = append(m,
		[2]string{"core.code_match_rate", "ratio"},
		[2]string{"core.heap_match_rate", "ratio"},
		[2]string{"profiler.run_ms", "ms"},
		[2]string{"profiler.finish_ms", "ms"},
		[2]string{"profiler.trace_words", "count"},
		[2]string{"postproc.dispatch_ms", "ms"},
		[2]string{"postproc.events", "count"},
		[2]string{"vm.cold_run_ms", "ms"},
		[2]string{"vm.ns_per_step", "ns"},
		[2]string{"vm.steps.cold", "count"},
		[2]string{"vm.steps.profiling", "count"},
		[2]string{"vm.steps.request", "count"},
		[2]string{"vm.cpu_ms", "ms"},
		[2]string{"osim.major_faults", "count"},
		[2]string{"osim.minor_faults", "count"},
		[2]string{"osim.io_ms", "ms"},
		[2]string{"osim.refaults", "count"},
		[2]string{"osim.evictions", "count"},
		[2]string{"osim.cross_tenant_evictions", "count"},
	)
	for _, s := range evalLayouts() {
		m = append(m,
			[2]string{"layout." + slug(s) + ".fault_factor", "ratio"},
			[2]string{"layout." + slug(s) + ".speedup", "ratio"})
	}
	for _, l := range allocLayers {
		m = append(m, [2]string{l + ".alloc_mb", "MB"})
	}
	return append(m,
		[2]string{"runtime.alloc_mb", "MB"},
		[2]string{"runtime.gc_cpu_frac", "ratio"},
		[2]string{"trace.overhead_s", "s"},
	)
}

// imageStages are the stage spans image.Build records in its registry.
var imageStages = []string{"reachability", "inlining", "clinit", "layout_text", "snapshot_heap", "layout_heap", "serialize"}

// allocLayers are the layers whose allocation the replay attributes.
var allocLayers = []string{"workloads", "graal", "ir", "image", "core", "profiler", "postproc", "vm"}

// orderers are the code and object orderers the replay times.
func orderers() []string {
	out := []string{core.StrategyCU, core.StrategyMethod, core.StrategyC3, core.StrategyExtTSP, core.StrategySLOSearch}
	for _, hs := range core.HeapStrategies() {
		out = append(out, hs.Name())
	}
	return out
}

// spanMetric maps a replay span name to its metric: "graal.analyze" to
// "graal.analyze_ms", "image.build.regular" to "image.build_ms.regular".
func spanMetric(name string) string {
	layer, rest, _ := strings.Cut(name, ".")
	op, kind, found := strings.Cut(rest, ".")
	if found {
		return layer + "." + op + "_ms." + kind
	}
	return layer + "." + rest + "_ms"
}

// layerMetrics computes the per-layer metrics of a traced run: host self
// times and allocations from the replay's spans, counts from the replay,
// osim and vm simulated counters from the workload's own runs where it
// has them (serve, fleet) and from the replay's cold runs otherwise.
func layerMetrics(rec *record, lc *layerCounts, setupRoots []int, replayRoot int, traced passCost) map[string]metric {
	spans := rec.Spans
	self := selfTimes(spans)
	selfAlloc := selfAllocs(spans)
	v := map[string]float64{}

	inReplay := descendants(spans, replayRoot)
	for i, s := range spans {
		if !inReplay[i] || i == replayRoot {
			continue
		}
		v[spanMetric(s.Name)] += float64(self[i]) / 1e6
		layer, _, _ := strings.Cut(s.Name, ".")
		v[layer+".alloc_mb"] += float64(selfAlloc[i]) / 1e6
	}
	// Program builds happen in setup; report the median setup's.
	var builds, buildAlloc []float64
	for _, root := range setupRoots {
		in := descendants(spans, root)
		var ms, mb float64
		for i, s := range spans {
			if in[i] && s.Name == "workloads.build" {
				ms += float64(self[i]) / 1e6
				mb += float64(selfAlloc[i]) / 1e6
			}
		}
		builds = append(builds, ms)
		buildAlloc = append(buildAlloc, mb)
	}
	v["workloads.build_ms"] = median(builds)
	v["workloads.alloc_mb"] = median(buildAlloc)

	for st, ns := range lc.stageNanos {
		v["image."+st+"_ms"] = float64(ns) / 1e6
	}
	for k, x := range lc.n {
		v[k] = x
	}
	for k, x := range rec.Sim.Layer {
		v[k] = x
	}
	v["image.file_kb"] = mean(lc.fileKB)
	v["core.code_match_rate"] = mean(lc.codeMatch)
	v["core.heap_match_rate"] = mean(lc.heapMatch)
	if lc.runSteps > 0 {
		v["vm.ns_per_step"] = float64(lc.runNanos) / float64(lc.runSteps)
	}
	for s, xs := range lc.faultFactor {
		v["layout."+slug(s)+".fault_factor"] = geoMean(xs).Value
	}
	for s, xs := range lc.speedup {
		v["layout."+slug(s)+".speedup"] = geoMean(xs).Value
	}
	if traced.passes > 0 {
		v["runtime.alloc_mb"] = traced.allocBytes / float64(traced.passes) / 1e6
	}
	if traced.totalCPU > 0 {
		v["runtime.gc_cpu_frac"] = traced.gcCPU / traced.totalCPU
	}
	v["trace.overhead_s"] = median(rec.TracedPassS) - median(rec.PassS)

	out := map[string]metric{}
	for _, nu := range layerMetricNames() {
		out[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
