package eval

// Serve-mode measurement: startup followed by request bursts against a
// long-lived process, with page-cache pressure applied between bursts.
// Where the cold-start protocol (harness.go) asks "how many faults until
// the first response", the serve protocol asks "what does a layout cost
// per warm burst once the kernel has started evicting its pages" — the
// steady-state counterpart of Sec. 7's startup figures. Latency here is
// simulated request time (CPU cycles plus fault I/O), so results are
// bit-deterministic like everything else in the harness.

import (
	"encoding/binary"
	"fmt"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/murmur"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

// ServeConfig tunes one serve-mode scenario.
type ServeConfig struct {
	// Bursts is the number of request bursts after startup; burst 0 is the
	// cold burst, bursts 1.. are the warm bursts the figures aggregate.
	Bursts int `json:"bursts"`
	// BurstSize is the number of requests per burst.
	BurstSize int `json:"burst_size"`
	// PressurePct reclaims this percentage of the resident pages between
	// bursts (inter-burst memory pressure from other tenants). 0 disables.
	PressurePct int `json:"pressure_pct"`
	// CacheBudget bounds the resident pages of the whole OS (0: unlimited);
	// the budget is enforced on every fault under the eviction policy.
	CacheBudget int `json:"cache_budget,omitempty"`
	// Policy is the page-replacement policy (LRU by default).
	Policy osim.EvictionPolicy `json:"policy,omitempty"`
	// HotPct percent of requests go to the HotRoutes first routes; the rest
	// spread uniformly over all routes. Models working-set skew.
	HotPct    int `json:"hot_pct"`
	HotRoutes int `json:"hot_routes"`
	// Seed drives the deterministic request stream.
	Seed uint64 `json:"seed"`
	// Streams is the number of concurrent closed-loop request streams
	// multiplexed against the single long-lived mapping, all sharing one
	// osim page-cache budget. 1 (the default) reproduces the serial
	// protocol bit for bit. For N > 1, each burst is the union of every
	// stream's BurstSize requests served in a deterministic seeded
	// interleave: the server is a single simulated CPU, so a request
	// waits in queue while requests of other streams are served — the
	// queue-wait/service split the SLO scorecards consume. Concurrency
	// is modeled, not goroutine-parallel, so results stay bit-identical
	// across -workers and repeated runs (the scheduler's determinism
	// contract).
	Streams int `json:"streams,omitempty"`
	// RecordRequests attaches the bounded per-request trace recorder
	// (obs.RequestTrace) to the run; the trace rides on the outcome and
	// feeds the SLO attainment math and the Chrome-trace export.
	RecordRequests bool `json:"record_requests,omitempty"`
}

// DefaultServeConfig returns the serve-mode defaults: five bursts of 24
// requests, half the resident set reclaimed between bursts, 80% of the
// traffic on 4 hot routes.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Bursts:      5,
		BurstSize:   24,
		PressurePct: 50,
		HotPct:      80,
		HotRoutes:   4,
		Seed:        0x53127e,
	}
}

// withDefaults fills unset knobs so a zero-valued config is usable and the
// memoization key is canonical.
func (c ServeConfig) withDefaults() ServeConfig {
	d := DefaultServeConfig()
	if c.Bursts <= 0 {
		c.Bursts = d.Bursts
	}
	if c.BurstSize <= 0 {
		c.BurstSize = d.BurstSize
	}
	if c.HotRoutes <= 0 {
		c.HotRoutes = d.HotRoutes
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Streams <= 0 {
		c.Streams = 1
	}
	return c
}

// key canonicalizes the config for memoization.
func (c ServeConfig) key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d/%d/%t",
		c.Bursts, c.BurstSize, c.PressurePct, c.CacheBudget, c.Policy,
		c.HotPct, c.HotRoutes, c.Seed, c.Streams, c.RecordRequests)
}

// BurstMeasure is the telemetry of one request burst. The eviction count
// includes the inter-burst pressure that preceded the burst — the cost a
// burst inherits — while faults, re-faults and I/O are strictly the
// burst's own.
type BurstMeasure struct {
	Burst    int `json:"burst"`
	Requests int `json:"requests"`
	// Request latency quantiles (simulated nanoseconds, exact nearest-rank
	// over the burst's samples).
	P50Nanos  float64 `json:"p50_nanos"`
	P90Nanos  float64 `json:"p90_nanos"`
	P99Nanos  float64 `json:"p99_nanos"`
	MeanNanos float64 `json:"mean_nanos"`
	// Fault traffic of the burst.
	MajorFaults int64 `json:"major_faults"`
	MinorFaults int64 `json:"minor_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
	// EvictedPages counts evictions since the previous burst ended
	// (pressure before the burst plus budget evictions during it).
	EvictedPages int64 `json:"evicted_pages"`
	// Section residency at the end of the burst.
	ResidentText int `json:"resident_text"`
	ResidentHeap int `json:"resident_heap"`
	// Queue-wait aggregates over the burst's requests: time spent waiting
	// for the single simulated CPU while other streams were served. Zero
	// (and omitted) for single-stream runs, whose latency is pure service
	// time.
	MeanQueueNanos float64 `json:"mean_queue_nanos,omitempty"`
	MaxQueueNanos  float64 `json:"max_queue_nanos,omitempty"`
}

// ServeOutcome is one build's serve-mode run: startup, then the bursts.
type ServeOutcome struct {
	Workload string      `json:"workload"`
	Strategy string      `json:"strategy"`
	Config   ServeConfig `json:"config"`
	// StartupNanos is the time to the first response (startup phase).
	StartupNanos float64        `json:"startup_nanos"`
	Bursts       []BurstMeasure `json:"bursts"`
	// Warm aggregates over the warm bursts (1..): mean and exact p99 of all
	// warm request latencies.
	WarmMeanNanos float64 `json:"warm_mean_nanos"`
	WarmP99Nanos  float64 `json:"warm_p99_nanos"`
	// Run totals: pages evicted and re-faulted over the whole run.
	EvictedPages int64 `json:"evicted_pages"`
	RefaultPages int64 `json:"refault_pages"`
	// Attrib is the per-symbol fault/eviction attribution; Report the obs
	// snapshot (serve.latency_nanos histogram, serve.burst timeline). Both
	// nil unless the harness observes.
	Attrib *attrib.Table `json:"attrib,omitempty"`
	Report *obs.Snapshot `json:"report,omitempty"`
	// Affinity is the temporal co-access graph recorded over the whole
	// serve run (startup plus every burst), and Scorecard its static score
	// against the run's own layout under the config's pressure. Both nil
	// unless the harness observes or tracks affinity.
	Affinity  *affinity.Graph     `json:"affinity,omitempty"`
	Scorecard *affinity.Scorecard `json:"scorecard,omitempty"`
	// Requests is the bounded per-request trace (queue/service split,
	// fault traffic, burst and reclaim marks); nil unless
	// ServeConfig.RecordRequests asked for it.
	Requests *obs.RequestTrace `json:"requests,omitempty"`
}

// routeFor derives request k's route deterministically from the seed:
// HotPct percent of requests hit the HotRoutes first routes, the rest
// spread over all of them.
func routeFor(k int, cfg ServeConfig, routes int) int {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(k))
	h := murmur.Sum64Seed(buf[:], cfg.Seed)
	hot := cfg.HotRoutes
	if hot <= 0 || hot > routes {
		hot = routes
	}
	if int(h%100) < cfg.HotPct {
		return int((h / 100) % uint64(hot))
	}
	return int((h / 100) % uint64(routes))
}

// routeForStream derives request k of stream s. Stream 0 reuses the
// routeFor sequence exactly — a Streams=1 run is bit-identical to the
// pre-stream serial protocol — while higher streams fold their id into
// the seed so concurrent streams pull distinct (but equally skewed)
// request sequences.
func routeForStream(stream, k int, cfg ServeConfig, routes int) int {
	if stream > 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(stream))
		cfg.Seed = murmur.Sum64Seed(buf[:], cfg.Seed)
	}
	return routeFor(k, cfg, routes)
}

// pickStream selects which stream's request the server takes next: a
// seeded deterministic interleave over the streams that still have
// requests left in the burst. With one stream this is the identity
// schedule; with several it shuffles service order reproducibly, so the
// contention pattern is stable across -workers, runs and platforms.
func pickStream(cfg ServeConfig, burst, step int, remaining []int) int {
	if len(remaining) == 1 {
		return 0
	}
	candidates := 0
	for _, r := range remaining {
		if r > 0 {
			candidates++
		}
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(burst))
	binary.LittleEndian.PutUint64(buf[8:], uint64(step))
	pick := int(murmur.Sum64Seed(buf[:], cfg.Seed) % uint64(candidates))
	for s, r := range remaining {
		if r > 0 {
			if pick == 0 {
				return s
			}
			pick--
		}
	}
	panic("eval: pickStream with no remaining requests")
}

// MeasureServe runs the serve scenario for one workload and strategy
// (LayoutBaseline or "" for unmodified images) over every build seed and
// returns one outcome per build. Results are memoized per (workload,
// strategy, config); images are additionally memoized per (workload,
// strategy, build) so pressure sweeps rebuild nothing.
func (h *Harness) MeasureServe(w workloads.Workload, strategy string, scfg ServeConfig) ([]*ServeOutcome, error) {
	if w.Serve == nil {
		return nil, fmt.Errorf("eval: workload %s has no serve spec", w.Name)
	}
	scfg = scfg.withDefaults()
	if strategy == "" {
		strategy = LayoutBaseline
	}
	key := w.Name + "\x00" + strategy + "\x00" + scfg.key()
	return memo(h, h.serveCache, "serve", key, func() ([]*ServeOutcome, error) {
		return h.measureServe(w, strategy, scfg)
	})
}

// measureServe fans the builds out across the worker pool; the outcome
// slice is indexed by build, so results are bit-identical for every worker
// count (the determinism contract of scheduler.go).
func (h *Harness) measureServe(w workloads.Workload, strategy string, scfg ServeConfig) ([]*ServeOutcome, error) {
	out := make([]*ServeOutcome, h.Cfg.Builds)
	err := h.forEach(h.Cfg.Builds, func(bld int) error {
		h.sched.buildTasks.Add(1)
		img, err := h.serveImage(w, strategy, bld)
		if err != nil {
			return err
		}
		o, err := h.serveRun(img, w, strategy, scfg, false)
		if err != nil {
			return err
		}
		out[bld] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// serveImage builds (once per workload/strategy/build — shared by every
// pressure level) the image a serve run executes.
func (h *Harness) serveImage(w workloads.Workload, strategy string, bld int) (*image.Image, error) {
	key := fmt.Sprintf("%s\x00%s\x00%d", w.Name, strategy, bld)
	return memo(h, h.serveImgs, "simg", key, func() (*image.Image, error) {
		p := h.Program(w)
		if strategy == LayoutBaseline {
			img, err := image.Build(p, image.Options{
				Kind: image.KindRegular, Compiler: h.Cfg.Compiler, BuildSeed: baselineSeed(bld),
			})
			if err != nil {
				return nil, fmt.Errorf("eval: serve baseline build of %s: %w", w.Name, err)
			}
			return img, nil
		}
		popts := image.PipelineOptions{
			Compiler:         h.Cfg.Compiler,
			Strategy:         strategy,
			InstrumentedSeed: instrumentedSeed(bld),
			OptimizedSeed:    optimizedSeed(bld),
			// Serve workloads are services: durable buffers (Sec. 6.1).
			Mode:    profiler.MemoryMapped,
			Args:    w.Args,
			Service: true,
		}
		if core.IsGraphStrategy(strategy) {
			// Graph strategies optimize burst residency, so they bake from
			// the baseline *serve* recording rather than letting the
			// pipeline record a cold start.
			g, err := h.serveAffinityGraph(w, bld)
			if err != nil {
				return nil, err
			}
			popts.AffinityGraph = g
			if strategy == core.StrategySLOSearch {
				// slo-search bakes the measured search winner: one searched
				// order per workload (memoized), rebuilt here with this
				// build's seed like any other strategy.
				sr, err := h.SearchLayout(w, DefaultSearchConfig())
				if err != nil {
					return nil, err
				}
				popts.CodeOrder = sr.Order
			}
		}
		res, err := image.BuildOptimized(p, popts)
		if err != nil {
			return nil, fmt.Errorf("eval: serve %s/%s: %w", w.Name, strategy, err)
		}
		return res.Optimized, nil
	})
}

// serveAffinityGraph records — once per workload/build, shared by every
// pressure level and both graph strategies — the affinity graph the graph
// strategies bake from: the baseline image of the same build runs the
// *default* serve scenario with affinity tracking forced on. Recording at
// the default config keeps the graph independent of the measurement's
// pressure sweep, preserving the serve-image memoization contract
// (sweeping pressure rebuilds nothing).
func (h *Harness) serveAffinityGraph(w workloads.Workload, bld int) (*affinity.Graph, error) {
	key := fmt.Sprintf("%s\x00%d", w.Name, bld)
	return memo(h, h.serveGraphs, "sgraph", key, func() (*affinity.Graph, error) {
		img, err := h.serveImage(w, LayoutBaseline, bld)
		if err != nil {
			return nil, err
		}
		o, err := h.serveRun(img, w, LayoutBaseline, DefaultServeConfig(), true)
		if err != nil {
			return nil, fmt.Errorf("eval: serve affinity recording of %s: %w", w.Name, err)
		}
		if o.Affinity == nil {
			return nil, fmt.Errorf("eval: serve affinity recording of %s produced no graph", w.Name)
		}
		return o.Affinity, nil
	})
}

// serveRun executes one serve scenario on the burst engine (burst.go): one
// tenant whose Streams closed-loop clients share the process. Serve adds
// the file-level eviction totals, the attribution table and the affinity
// graph with its scorecard. trackAffinity forces the co-access recorder on
// regardless of the harness config — the serve affinity recording needs a
// graph even on detached harnesses.
func (h *Harness) serveRun(img *image.Image, w workloads.Workload, strategy string, scfg ServeConfig, trackAffinity bool) (*ServeOutcome, error) {
	scfg = scfg.withDefaults() // direct callers may pass a sparse config
	r, err := h.runBursts(burstSpec{
		imgs:          []*image.Image{img},
		ws:            []workloads.Workload{w},
		layouts:       []string{strategy},
		cfg:           scfg,
		trackAffinity: trackAffinity,
		obsPrefix:     func(int) string { return "serve" },
		residentCols:  []string{"resident_text", "resident_heap"},
		residentRow: func(bm BurstMeasure, _ int64) []int64 {
			return []int64{int64(bm.ResidentText), int64(bm.ResidentHeap)}
		},
	})
	if err != nil {
		return nil, err
	}
	tn, f, proc := r.tenants[0], r.files[0], r.procs[0]
	out := &ServeOutcome{
		Workload:      w.Name,
		Strategy:      strategy,
		Config:        scfg,
		StartupNanos:  tn.startupNanos,
		Bursts:        tn.bursts,
		WarmMeanNanos: tn.warmMean,
		WarmP99Nanos:  tn.warmP99,
		EvictedPages:  f.EvictedPages(),
		RefaultPages:  f.RefaultedPages(),
		Requests:      r.trace,
	}
	if tab := proc.AttributionTable(); tab != nil {
		tab.Layout = strategy
		out.Attrib = tab
	}
	if g := proc.AffinityGraph(); g != nil {
		g.Layout = strategy
		out.Affinity = g
		sc, err := affinity.Score(g,
			affinity.NewPlacement(img.AttributionIndex().Symbols()),
			strategy, scfg.PressurePct, scfg.CacheBudget)
		if err != nil {
			r.close()
			return nil, err
		}
		out.Scorecard = sc
	}
	out.Report = r.close()
	return out, nil
}

// ServeStrategies are the layouts the serve figures compare, from the
// strategy registry: the text-side orderer, the heap-side orderer, their
// combination, and the two graph-based serve layouts.
func ServeStrategies() []string {
	return core.ServeStrategyNames()
}

// ServeLatencyTable compares warm-burst mean latency (baseline / strategy,
// >1 means the layout is faster) per serve workload under one pressure
// level. A nil workload set means every serve workload; nil strategies
// mean ServeStrategies().
func (h *Harness) ServeLatencyTable(ws []workloads.Workload, scfg ServeConfig, strategies []string) (*Table, error) {
	return h.serveTable(
		fmt.Sprintf("Serve warm-burst latency (pressure %d%%)", scfg.withDefaults().PressurePct),
		"warm-burst latency speedup", ws, scfg, strategies,
		func(o *ServeOutcome) float64 { return o.WarmMeanNanos })
}

// ServeRefaultTable compares total re-faulted pages (baseline / strategy,
// >1 means the layout re-faults less) per serve workload under one
// pressure level.
func (h *Harness) ServeRefaultTable(ws []workloads.Workload, scfg ServeConfig, strategies []string) (*Table, error) {
	return h.serveTable(
		fmt.Sprintf("Serve re-fault volume (pressure %d%%)", scfg.withDefaults().PressurePct),
		"re-fault reduction", ws, scfg, strategies,
		func(o *ServeOutcome) float64 { return float64(o.RefaultPages) })
}

func (h *Harness) serveTable(title, metric string, ws []workloads.Workload, scfg ServeConfig, strategies []string, val func(*ServeOutcome) float64) (*Table, error) {
	if ws == nil {
		ws = workloads.Serve()
	}
	if strategies == nil {
		strategies = ServeStrategies()
	}
	t := &Table{Title: title, Metric: metric, Strategies: strategies}
	for _, w := range ws {
		base, err := h.MeasureServe(w, LayoutBaseline, scfg)
		if err != nil {
			return nil, err
		}
		var bs []float64
		for _, o := range base {
			bs = append(bs, val(o))
		}
		for _, s := range strategies {
			opt, err := h.MeasureServe(w, s, scfg)
			if err != nil {
				return nil, err
			}
			var os []float64
			for _, o := range opt {
				os = append(os, val(o))
			}
			t.Cells = append(t.Cells, FactorCell(w.Name, s, bs, os))
		}
	}
	t.AddGeoMean()
	t.SortCells()
	return t, nil
}

// ServeFigure produces the serve-mode comparison: per pressure level, a
// warm-burst latency table and a re-fault volume table. The default
// pressure levels (30% and 70%) bracket mild and severe inter-burst
// reclaim.
func (h *Harness) ServeFigure(pressures []int) ([]*Table, error) {
	if len(pressures) == 0 {
		pressures = []int{30, 70}
	}
	var out []*Table
	for _, p := range pressures {
		scfg := DefaultServeConfig()
		scfg.PressurePct = p
		lt, err := h.ServeLatencyTable(nil, scfg, nil)
		if err != nil {
			return nil, err
		}
		rt, err := h.ServeRefaultTable(nil, scfg, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, lt, rt)
	}
	return out, nil
}
