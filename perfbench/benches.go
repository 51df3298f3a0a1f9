package main

import (
	"bytes"
	"fmt"
	"strings"

	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/image"
	"nimage/internal/workloads"
)

// bench is one workload of the benchmark. The runner calls setup several
// times, then pass repeatedly, then check once, then sim.
type bench interface {
	// setup builds the inputs the timed phase consumes from the seed.
	setup(tr *tracer, parent int) error
	// pass runs the workload's batch once, as timed pass k, through the
	// public entry points.
	pass(tr *tracer, parent, k int) ([]op, error)
	// repeatDigest hashes simulated outputs that must repeat exactly:
	// compared across the setups of a run, and across its passes.
	repeatDigest() (string, error)
	// simDigest hashes every simulated statistic behind the run's sim
	// metrics; two runs of one seed must print the same.
	simDigest() (string, error)
	// check verifies the last pass's outputs outside the timed phase. It
	// returns failures keyed by op key, or by a prefix of op keys ending
	// at a "/".
	check(tr *tracer, parent int) (map[string][]string, error)
	// sim summarizes the simulated outcomes of the last pass and check.
	sim() simResult
	// programs are the prebuilt programs the layer replay walks.
	programs() []workloads.Workload
}

// simResult is a workload's simulated outcome. Faults and Millis are the
// sim_faults and sim_ms end-to-end metrics; Named holds the outcome under
// its workload-specific names (README.md); Layer holds osim and
// vm counters of the workload's own runs, when they come from there
// rather than from the layer replay.
type simResult struct {
	Faults geo                `json:"faults"`
	Millis geo                `json:"millis"`
	Named  map[string]float64 `json:"named"`
	Layer  map[string]float64 `json:"layer,omitempty"`
}

// nominalPassS is each workload's pass time in seconds on the reference
// host (2 vCPU x86-64). A run makes round(seconds / nominalPassS) passes,
// at least minPasses, so two commits always measure the same work and
// the same number of ops; on the reference host the timed phase lasts
// about the requested seconds.
var nominalPassS = map[string]float64{
	"coldstart": 6.2,
	"rebake":    0.9,
	"serve":     1.45,
	"fleet":     0.9,
}

func newBench(name string, seed uint64, workers int) (bench, error) {
	switch name {
	case "coldstart":
		return &coldstart{seed: seed, workers: workers}, nil
	case "rebake":
		return &rebake{seed: seed, workers: workers}, nil
	case "serve":
		return &serve{seed: seed, workers: workers}, nil
	case "fleet":
		return &fleet{seed: seed, workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want coldstart, rebake, serve or fleet)", name)
}

// coldstart is the paper's evaluation: every (program, layout) cold-start
// cell of Figures 2-5, measured through the eval harness.
type coldstart struct {
	seed    uint64
	workers int
	progs   []workloads.Workload
	// measures and tables are the last pass's outputs; the pass drops its
	// harness once it has read them.
	measures [][]eval.RunMeasure
	tables   []*eval.Table
}

// coldGenerated is how many seeded generated programs join the 14 AWFY
// programs and the 3 microservices.
const coldGenerated = 2

func (c *coldstart) setup(tr *tracer, parent int) error {
	c.progs = prebuild(tr, parent, append(workloads.All(), generated(c.seed, coldGenerated)...))
	return nil
}

func (c *coldstart) programs() []workloads.Workload { return c.progs }

func (c *coldstart) layouts() []string {
	return append([]string{eval.LayoutBaseline}, evalLayouts()...)
}

func (c *coldstart) pass(tr *tracer, parent, _ int) ([]op, error) {
	c.measures, c.tables = nil, nil
	h := newHarness(c.workers, c.progs)
	type cell struct {
		w workloads.Workload
		s string
	}
	var cells []cell
	var keys []string
	for _, w := range c.progs {
		for _, s := range c.layouts() {
			cells = append(cells, cell{w, s})
			keys = append(keys, w.Name+"/"+s)
		}
	}
	// One op is one cell: its builds, profiling runs and measured runs.
	ops := runPool(tr, parent, "eval.Measure", c.workers, keys, func(i int) error {
		if cells[i].s == eval.LayoutBaseline {
			_, err := h.MeasureBaselineOutcome(cells[i].w)
			return err
		}
		_, err := h.MeasureStrategy(cells[i].w, cells[i].s)
		return err
	})
	// The figures assemble the memoized cells.
	gen := c.progs[len(c.progs)-coldGenerated:]
	figures := []struct {
		name string
		f    func() (*eval.Table, error)
	}{
		{"eval.Figure2", h.Figure2},
		{"eval.Figure3", h.Figure3},
		{"eval.Figure4", h.Figure4},
		{"eval.Figure5", h.Figure5},
		{"eval.PageFaultTable", func() (*eval.Table, error) {
			return h.PageFaultTable("page-fault reduction on generated programs", gen)
		}},
		{"eval.SpeedupTable", func() (*eval.Table, error) {
			return h.SpeedupTable("execution-time speedup on generated programs", gen)
		}},
	}
	for _, f := range figures {
		var t *eval.Table
		var err error
		tr.call(parent, f.name, func() { t, err = f.f() })
		if err != nil {
			return ops, fmt.Errorf("%s: %w", f.name, err)
		}
		c.tables = append(c.tables, t)
	}
	var err error
	c.measures, err = cellMeasures(h, c.progs, c.layouts())
	return ops, err
}

// cellMeasures reads the memoized cold-start measures of every cell, in
// cell order.
func cellMeasures(h *eval.Harness, progs []workloads.Workload, layouts []string) ([][]eval.RunMeasure, error) {
	var out [][]eval.RunMeasure
	for _, w := range progs {
		for _, s := range layouts {
			if s == eval.LayoutBaseline {
				ms, err := h.MeasureBaseline(w)
				if err != nil {
					return nil, err
				}
				out = append(out, ms)
				continue
			}
			o, err := h.MeasureStrategy(w, s)
			if err != nil {
				return nil, err
			}
			out = append(out, o.Measures)
		}
	}
	return out, nil
}

func (c *coldstart) simDigest() (string, error) { return c.repeatDigest() }

// repeatDigest is empty after setup, which simulates nothing.
func (c *coldstart) repeatDigest() (string, error) {
	if c.measures == nil {
		return "", nil
	}
	var csv []string
	for _, t := range c.tables {
		csv = append(csv, t.Title+"\n"+t.CSV())
	}
	return digest(struct {
		Measures [][]eval.RunMeasure
		Tables   []string
	}{c.measures, csv})
}

func (c *coldstart) check(tr *tracer, parent int) (map[string][]string, error) {
	return checkLayouts(tr, parent, c.workers, c.progs, func(workloads.Workload) []string { return evalLayouts() })
}

func (c *coldstart) sim() simResult {
	var faults, millis []float64
	for _, cell := range c.measures {
		for _, m := range cell {
			faults = append(faults, m.TextFaults+m.HeapFaults)
			millis = append(millis, m.Time*1e3)
		}
	}
	r := simResult{Faults: geoMean(faults), Millis: geoMean(millis)}
	r.Named = map[string]float64{"sim_faults": r.Faults.Value, "sim_start_ms": r.Millis.Value}
	return r
}

// rebake is the deployment path: recipes serialized once per (program,
// layout) in setup, then read back and baked.
type rebake struct {
	seed    uint64
	workers int
	progs   []workloads.Workload
	recipes []recipe
	// digests and kb describe the last pass's baked images, which are
	// dropped as soon as they are described.
	digests []string
	kb      []float64
	// stats are the checked cold runs, of the baked images and then of
	// the regular builds; service marks the services among them.
	stats   []image.Stats
	service []bool
}

// recipe is one serialized .nimg recipe and the layout digest of the
// image it was captured from.
type recipe struct {
	w      workloads.Workload
	layout string
	blob   []byte
	digest string
}

// rebakeFixed are the hand-written programs of rebake, AWFY programs and
// microservices with the cheapest recipe production, next to one seeded
// generated program.
var rebakeFixed = []string{"Bounce", "CD", "Queens", "Richards", "micronaut", "quarkus"}

const rebakeGenerated = 1

func (r *rebake) setup(tr *tracer, parent int) error {
	var ws []workloads.Workload
	for _, name := range rebakeFixed {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	r.progs = prebuild(tr, parent, append(ws, generated(r.seed, rebakeGenerated)...))
	r.digests = nil
	var recs []recipe
	var keys []string
	for _, w := range r.progs {
		for _, s := range traceLayouts() {
			recs = append(recs, recipe{w: w, layout: s})
			keys = append(keys, w.Name+"/"+s)
		}
	}
	ops := runPool(tr, parent, "image.BuildOptimized+WriteRecipe", r.workers, keys, func(i int) error {
		img, err := optimizedImage(recs[i].w, recs[i].layout)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := image.WriteRecipe(&buf, image.RecipeOf(img)); err != nil {
			return err
		}
		recs[i].blob = buf.Bytes()
		recs[i].digest = layoutDigest(img)
		return nil
	})
	for _, o := range ops {
		if o.err != nil {
			return fmt.Errorf("recipe %s: %w", o.key, o.err)
		}
	}
	r.recipes = recs
	return nil
}

func (r *rebake) programs() []workloads.Workload { return r.progs }

func (r *rebake) pass(tr *tracer, parent, _ int) ([]op, error) {
	keys := make([]string, len(r.recipes))
	for i, rc := range r.recipes {
		keys[i] = rc.w.Name + "/" + rc.layout
	}
	baked := make([]*image.Image, len(r.recipes))
	r.digests = make([]string, len(r.recipes))
	r.kb = make([]float64, len(r.recipes))
	// One op is one bake: decode the recipe, rebuild the image. Bakes run
	// one at a time, as a deployment bakes a recipe; the runtime's
	// collector has the other CPU.
	ops := runPoolThen(tr, parent, "image.ReadRecipe+Bake", 1, keys, func(i int) error {
		rc, err := image.ReadRecipe(bytes.NewReader(r.recipes[i].blob))
		if err != nil {
			return err
		}
		baked[i], err = rc.Bake()
		return err
	}, func(i int) {
		r.digests[i] = layoutDigest(baked[i])
		r.kb[i] = float64(baked[i].FileSize) / 1024
		baked[i] = nil
	})
	return ops, nil
}

// repeatDigest covers the images setup captured, then those the last pass
// baked; the check verifies that the two agree.
func (r *rebake) repeatDigest() (string, error) {
	if r.digests == nil {
		ds := make([]string, len(r.recipes))
		for i, rc := range r.recipes {
			ds[i] = rc.digest
		}
		return digest(ds)
	}
	return digest(r.digests)
}

// simDigest covers the baked layouts and the checked cold runs.
func (r *rebake) simDigest() (string, error) {
	return digest(struct {
		Layouts []string
		Runs    []image.Stats
	}{r.digests, r.stats})
}

// check bakes every recipe once more, outside the timed phase, and checks
// that it reproduces the original image's layout exactly (as the timed
// bakes must have too), that it is a permutation of its reference, and
// that it prints what the regular build prints.
func (r *rebake) check(tr *tracer, parent int) (map[string][]string, error) {
	regular, err := regularRuns(r.workers, r.progs)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(r.recipes))
	fails := make([][]string, len(r.recipes))
	stats := make([]image.Stats, len(r.recipes))
	for i, rc := range r.recipes {
		keys[i] = rc.w.Name + "/" + rc.layout
	}
	runPool(tr, parent, "check", r.workers, keys, func(i int) error {
		rc := r.recipes[i]
		if r.digests[i] != rc.digest {
			fails[i] = append(fails[i], "timed bake's layout differs from the original image's")
		}
		rr, err := image.ReadRecipe(bytes.NewReader(rc.blob))
		if err != nil {
			fails[i] = append(fails[i], "reading recipe: "+err.Error())
			return nil
		}
		img, err := rr.Bake()
		if err != nil {
			fails[i] = append(fails[i], "baking: "+err.Error())
			return nil
		}
		if layoutDigest(img) != rc.digest {
			fails[i] = append(fails[i], "baked layout differs from the original image's")
		}
		var f []string
		stats[i], f = checkImage(rc.w, img, regular[rc.w.Name].prints)
		fails[i] = append(fails[i], f...)
		return nil
	})
	out := map[string][]string{}
	for i, f := range fails {
		if len(f) > 0 {
			out[keys[i]] = f
		}
	}
	r.stats, r.service = stats, nil
	for _, rc := range r.recipes {
		r.service = append(r.service, rc.w.Service)
	}
	for _, w := range r.progs {
		r.stats = append(r.stats, regular[w.Name].stats)
		r.service = append(r.service, w.Service)
	}
	return out, nil
}

// sim averages the checked cold runs of the baked images and the regular
// builds. The means are arithmetic: the generated program is far smaller
// than the others, so its seed moves them little, where it would move a
// geomean by its full share of the cells.
func (r *rebake) sim() simResult {
	var faults, millis []float64
	for i, st := range r.stats {
		faults = append(faults, faultCount(st))
		millis = append(millis, startMillis(st, r.service[i]))
	}
	res := simResult{Faults: arithMean(faults), Millis: arithMean(millis)}
	res.Named = map[string]float64{
		"sim_faults":   res.Faults.Value,
		"sim_start_ms": res.Millis.Value,
		"image_kb":     mean(r.kb),
	}
	return res
}

// Serve and fleet protocol. Bursts are long enough that the warm-burst
// refaults sit far above one page, and short enough that a warm p99 falls
// on requests that wait for a refault rather than on pure compute.
const (
	serveBursts    = 120
	serveBurstSize = 100
)

// serveLayouts is the baseline plus the serve figure set.
func serveLayouts() []string { return append([]string{eval.LayoutBaseline}, eval.ServeStrategies()...) }

// Serve and fleet calls that share a memoized serve image must not run at
// once: their processes share the image's build-time heap, and concurrent
// runs race on it. Setup therefore records the graph layouts' affinity
// graphs (a run on the baseline image) and runs the layout search
// serially; a pass runs the two pressures of one (program, layout) in one
// lane, and fleet mixes share no (program, layout) pair.

// passSeed is the request-stream seed of timed pass k. Each pass serves
// new request streams, so the harness, which memoizes per config, measures
// every pass afresh while keeping the images setup built.
func passSeed(seed uint64, k int) uint64 { return splitmix64(serveSeed(seed)+uint64(k)) | 1 }

// warmServe builds, through the harness's own memoization, every serve
// image the timed passes use (with the graph layouts' recordings and the
// layout search) by serving each (program, layout) a few requests once.
// It returns the outcomes, which must repeat exactly from setup to setup.
func warmServe(tr *tracer, parent int, h *eval.Harness, progs []workloads.Workload, layouts func(workloads.Workload) []string) ([]*eval.ServeOutcome, error) {
	var outs []*eval.ServeOutcome
	for _, w := range progs {
		for _, l := range layouts(w) {
			cfg := eval.DefaultServeConfig()
			cfg.Bursts, cfg.BurstSize = 2, 10
			var o []*eval.ServeOutcome
			var err error
			tr.call(parent, "eval.MeasureServe", func() { o, err = h.MeasureServe(w, l, cfg) })
			if err != nil {
				return nil, fmt.Errorf("warming %s/%s: %w", w.Name, l, err)
			}
			outs = append(outs, o...)
		}
	}
	return outs, nil
}

// serve is warm serving under page-cache pressure: every serve program
// and layout at 30% and 70% inter-burst reclaim.
type serve struct {
	seed    uint64
	workers int
	progs   []workloads.Workload
	h       *eval.Harness
	warm    []*eval.ServeOutcome
	outs    []*eval.ServeOutcome
}

var servePressures = []int{30, 70}

// setup builds the programs and their images; the timed passes then run
// only the serve protocol, which is what this workload measures.
func (s *serve) setup(tr *tracer, parent int) error {
	s.progs = prebuild(tr, parent, workloads.Serve())
	s.h = newHarness(s.workers, s.progs)
	s.outs = nil
	var err error
	s.warm, err = warmServe(tr, parent, s.h, s.progs, func(workloads.Workload) []string { return serveLayouts() })
	return err
}

func (s *serve) programs() []workloads.Workload { return s.progs }

func (s *serve) pass(tr *tracer, parent, k int) ([]op, error) {
	type cell struct {
		w        workloads.Workload
		layout   string
		pressure int
	}
	var cells []cell
	var keys []string
	for _, w := range s.progs {
		for _, l := range serveLayouts() {
			for _, p := range servePressures {
				cells = append(cells, cell{w, l, p})
				keys = append(keys, fmt.Sprintf("%s/%s/p%d", w.Name, l, p))
			}
		}
	}
	outs := make([]*eval.ServeOutcome, len(cells))
	var lanes [][]string
	for i := 0; i < len(keys); i += len(servePressures) {
		lanes = append(lanes, keys[i:i+len(servePressures)])
	}
	// One lane is one image: its pressures in turn.
	ops := runLanes(tr, parent, "eval.MeasureServe", s.workers, lanes, func(lane, j int) error {
		i := lane*len(servePressures) + j
		cfg := eval.DefaultServeConfig()
		cfg.Bursts = serveBursts
		cfg.BurstSize = serveBurstSize
		cfg.PressurePct = cells[i].pressure
		cfg.Seed = passSeed(s.seed, k)
		o, err := s.h.MeasureServe(cells[i].w, cells[i].layout, cfg)
		if err != nil {
			return err
		}
		outs[i] = o[0]
		return nil
	}, nil)
	s.outs = append(s.outs, outs...)
	return ops, nil
}

func (s *serve) repeatDigest() (string, error) { return digest(s.warm) }

func (s *serve) simDigest() (string, error) { return digest(s.outs) }

func (s *serve) check(tr *tracer, parent int) (map[string][]string, error) {
	return checkLayouts(tr, parent, s.workers, s.progs, func(workloads.Workload) []string { return eval.ServeStrategies() })
}

func (s *serve) sim() simResult {
	var ws []warmRun
	var evicted int64
	for _, o := range s.outs {
		if o != nil {
			ws = append(ws, warmRun{startup: o.StartupNanos, p99: o.WarmP99Nanos, mean: o.WarmMeanNanos,
				refaults: o.RefaultPages, bursts: o.Bursts})
			evicted += o.EvictedPages
		}
	}
	r := warmSim(ws)
	r.Layer["osim.evictions"] = float64(evicted)
	r.Layer["osim.cross_tenant_evictions"] = 0
	return r
}

// warmRun is the warm-serving outcome of one serve cell or fleet tenant.
type warmRun struct {
	startup, p99, mean float64
	refaults           int64
	bursts             []eval.BurstMeasure
}

// warmSim summarizes warm runs: sim_ms is the warm-burst mean request
// latency and sim_faults the refaulted pages per 1000 warm requests, each
// a geomean over runs; the osim/vm counters sum over every burst.
func warmSim(runs []warmRun) simResult {
	var means, p99s, refk, starts []float64
	var major, minor, io, lat, refaults float64
	for _, w := range runs {
		warm := 0
		for _, b := range w.bursts {
			if b.Burst > 0 {
				warm += b.Requests
			}
			major += float64(b.MajorFaults)
			minor += float64(b.MinorFaults)
			io += float64(b.IONanos)
			// Latency is queue wait plus service; service is CPU plus
			// the fault I/O the request waited for.
			lat += (b.MeanNanos - b.MeanQueueNanos) * float64(b.Requests)
		}
		refaults += float64(w.refaults)
		means = append(means, w.mean/1e6)
		p99s = append(p99s, w.p99/1e3)
		starts = append(starts, w.startup/1e6)
		if warm > 0 {
			refk = append(refk, float64(w.refaults)*1000/float64(warm))
		} else {
			refk = append(refk, 0)
		}
	}
	r := simResult{Faults: geoMean(refk), Millis: geoMean(means)}
	r.Named = map[string]float64{
		"sim_warm_mean_us":      r.Millis.Value * 1e3,
		"sim_warm_p99_us":       geoMean(p99s).Value,
		"sim_refaults_per_kreq": r.Faults.Value,
		"sim_start_ms":          geoMean(starts).Value,
	}
	r.Layer = map[string]float64{
		"osim.major_faults": major,
		"osim.minor_faults": minor,
		"osim.refaults":     refaults,
		"osim.io_ms":        io / 1e6,
		"vm.cpu_ms":         (lat - io) / 1e6,
	}
	return r
}

// fleet is the same serve programs as mixed-layout co-tenants of one
// shared, budgeted page cache, some of them under a residency quota.
type fleet struct {
	seed    uint64
	workers int
	progs   []workloads.Workload
	h       *eval.Harness
	warm    []*eval.ServeOutcome
	outs    []*eval.FleetOutcome
}

const (
	// fleetBursts is shorter than serveBursts: a fleet burst serves every
	// tenant, so each already carries four times the requests.
	fleetBursts   = 80
	fleetBudget   = 192
	fleetPressure = 40
	fleetQuota    = 30
)

// fleetMixes are three mixes of four tenants: both serve programs, four
// different layouts each, a quota on one tenant of each program. No two
// mixes share a (program, layout) pair, so mixes run at once without
// sharing an image; together they cover every serve layout but slo-search
// on serve-api and heap path on serve-cache.
func fleetMixes() [][]eval.TenantSpec {
	api, cache := "serve-api", "serve-cache"
	t := func(w, s string, quota int) eval.TenantSpec {
		return eval.TenantSpec{Workload: w, Strategy: s, QuotaPct: quota}
	}
	return [][]eval.TenantSpec{
		{t(api, eval.LayoutBaseline, 0), t(api, core.StrategyC3, fleetQuota),
			t(cache, core.StrategyCombined, fleetQuota), t(cache, core.StrategyExtTSP, 0)},
		{t(api, core.StrategyCU, 0), t(api, core.StrategyExtTSP, fleetQuota),
			t(cache, eval.LayoutBaseline, fleetQuota), t(cache, core.StrategyC3, 0)},
		{t(api, core.StrategyHeapPath, 0), t(api, core.StrategyCombined, fleetQuota),
			t(cache, core.StrategyCU, fleetQuota), t(cache, core.StrategySLOSearch, 0)},
	}
}

// fleetLayouts lists, per program, the layouts its tenants use.
func fleetLayouts() map[string][]string {
	out := map[string][]string{}
	seen := map[string]bool{}
	for _, mix := range fleetMixes() {
		for _, t := range mix {
			if k := t.Workload + "/" + t.Strategy; !seen[k] {
				seen[k] = true
				out[t.Workload] = append(out[t.Workload], t.Strategy)
			}
		}
	}
	return out
}

func (f *fleet) setup(tr *tracer, parent int) error {
	f.progs = prebuild(tr, parent, workloads.Serve())
	f.h = newHarness(f.workers, f.progs)
	f.outs = nil
	layouts := fleetLayouts()
	var err error
	f.warm, err = warmServe(tr, parent, f.h, f.progs, func(w workloads.Workload) []string { return layouts[w.Name] })
	return err
}

func (f *fleet) programs() []workloads.Workload { return f.progs }

func (f *fleet) pass(tr *tracer, parent, k int) ([]op, error) {
	mixes := fleetMixes()
	keys := make([]string, len(mixes))
	for i := range mixes {
		keys[i] = fmt.Sprintf("mix%d", i)
	}
	outs := make([]*eval.FleetOutcome, len(mixes))
	// One op is one mix: its tenants' solo serve runs and the fleet run.
	ops := runPool(tr, parent, "eval.MeasureFleet", f.workers, keys, func(i int) error {
		fo, err := f.h.MeasureFleet(eval.FleetConfig{
			Tenants:     mixes[i],
			Bursts:      fleetBursts,
			BurstSize:   serveBurstSize,
			PressurePct: fleetPressure,
			CacheBudget: fleetBudget,
			Seed:        passSeed(f.seed, k),
		})
		if err != nil {
			return err
		}
		outs[i] = fo[0]
		return nil
	})
	f.outs = append(f.outs, outs...)
	return ops, nil
}

func (f *fleet) repeatDigest() (string, error) { return digest(f.warm) }

func (f *fleet) simDigest() (string, error) { return digest(f.outs) }

func (f *fleet) check(tr *tracer, parent int) (map[string][]string, error) {
	layouts := fleetLayouts()
	pairFails, err := checkLayouts(tr, parent, f.workers, f.progs, func(w workloads.Workload) []string {
		var out []string
		for _, l := range layouts[w.Name] {
			if l != eval.LayoutBaseline {
				out = append(out, l)
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for i, mix := range fleetMixes() {
		for _, t := range mix {
			for _, m := range pairFails[t.Workload+"/"+t.Strategy] {
				key := fmt.Sprintf("mix%d", i)
				out[key] = append(out[key], t.Workload+"/"+t.Strategy+": "+m)
			}
		}
	}
	return out, nil
}

func (f *fleet) sim() simResult {
	var ws []warmRun
	var evicted, cross float64
	for _, fo := range f.outs {
		if fo == nil {
			continue
		}
		for _, t := range fo.Tenants {
			ws = append(ws, warmRun{startup: t.StartupNanos, p99: t.WarmP99Nanos, mean: t.WarmMeanNanos,
				refaults: t.RefaultPages, bursts: t.Bursts})
		}
		evicted += float64(fo.TotalEvictions)
		// Row 0 is external reclaim and column 0 untenanted files; the
		// diagonal is self-eviction.
		for i := 1; i < len(fo.EvictedBy); i++ {
			for j := 1; j < len(fo.EvictedBy[i]); j++ {
				if i != j {
					cross += float64(fo.EvictedBy[i][j])
				}
			}
		}
	}
	r := warmSim(ws)
	r.Layer["osim.evictions"] = evicted
	r.Layer["osim.cross_tenant_evictions"] = cross
	return r
}

// failedOp reports whether a check failure key covers the op key.
func failedOp(key string, fails map[string][]string) bool {
	for k := range fails {
		if key == k || strings.HasPrefix(key, k+"/") {
			return true
		}
	}
	return false
}
