package eval

// The burst engine: the one implementation of the steady-state request
// protocol behind serve mode (serve.go) and the fleet observatory
// (fleet.go). It serves T tenant processes × S closed-loop streams each
// from one simulated OS. Every tenant starts cold, in tenant order (later
// startups already press on earlier tenants' pages); then every burst is
// the union of all T·S clients' BurstSize requests, drained by one
// simulated CPU in the seeded pickStream interleave, with inter-burst
// reclaim before every warm burst. Serve is T=1 with S=Streams; a fleet is
// T=tenants with S=1. Client c belongs to tenant c/S and draws route
// stream c, so both callers replay their request sequences bit for bit.
//
// Process i is always tagged tenant i. Tenancy is pure accounting in
// osim — it never changes which page is evicted — so serve outcomes are
// the same as untenanted runs, while fleets read the per-tenant counters
// and the interference matrix from the same run.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/osim"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// burstSpec is one engine run: the tenants in tenant order and the shared
// scenario knobs.
type burstSpec struct {
	imgs []*image.Image
	ws   []workloads.Workload
	// layouts label the tenants in the request trace.
	layouts []string
	// cfg holds the scenario knobs; cfg.Streams is S, the closed-loop
	// streams per tenant.
	cfg ServeConfig
	// quotas are per-tenant residency quotas in pages (missing or 0: none).
	quotas []int
	// trackAffinity forces the co-access recorder on regardless of the
	// harness config.
	trackAffinity bool
	// obsPrefix names tenant i's telemetry: <prefix>.latency_nanos,
	// <prefix>.burst and, with S > 1, <prefix>.streamNN.latency_nanos.
	obsPrefix func(tenant int) string
	// residentCols name the residency columns closing every burst
	// timeline row; residentRow fills them from the burst's measure and
	// the tenant's resident pages at the burst end.
	residentCols []string
	residentRow  func(bm BurstMeasure, tenantResident int64) []int64
}

// tenantRun is one tenant's telemetry from an engine run.
type tenantRun struct {
	startupNanos float64
	bursts       []BurstMeasure
	// resident is the tenant's resident pages at each burst end.
	resident []int64
	// warm holds the sorted warm-burst latencies (every burst's when the
	// run has only the cold one), summarized by warmMean and warmP99.
	warm              []float64
	warmMean, warmP99 float64
}

// burstRun is a finished engine run whose processes are still open, so
// callers can read attribution, affinity and OS accounting before close.
type burstRun struct {
	os      *osim.OS
	procs   []*image.Process
	files   []*osim.File
	tenants []tenantRun
	trace   *obs.RequestTrace
}

// close ends every process and returns the obs snapshot (nil when the
// harness does not observe).
func (r *burstRun) close() *obs.Snapshot {
	for _, p := range r.procs {
		if p != nil {
			p.Close()
		}
	}
	if r.os.Obs == nil {
		return nil
	}
	return r.os.Obs.Snapshot()
}

// faultMark is a process's counters at one instant; the difference of
// two marks is the fault traffic and work in between.
type faultMark struct {
	faults, major, refaults, steps int64
	io                             time.Duration
}

func markOf(p *image.Process) faultMark {
	return faultMark{
		faults: p.Mapping.Faults, major: p.Mapping.MajorFaults,
		refaults: p.Mapping.Refaults, steps: p.Machine.Steps, io: p.Mapping.IOTime,
	}
}

func (m faultMark) since(prev faultMark) faultMark {
	return faultMark{
		faults: m.faults - prev.faults, major: m.major - prev.major,
		refaults: m.refaults - prev.refaults, steps: m.steps - prev.steps,
		io: m.io - prev.io,
	}
}

// dispatchMethod resolves a serve workload's request entry point in img.
func dispatchMethod(img *image.Image, w workloads.Workload) (*ir.Method, error) {
	cls := img.Program.Class(w.Serve.DispatchClass)
	if cls == nil {
		return nil, fmt.Errorf("eval: serve %s: dispatch class %s missing", w.Name, w.Serve.DispatchClass)
	}
	meth := cls.LookupMethod(w.Serve.DispatchMethod)
	if meth == nil || !meth.Static || meth.NParams != 1 {
		return nil, fmt.Errorf("eval: serve %s: dispatch method %s.%s must be static with one parameter",
			w.Name, w.Serve.DispatchClass, w.Serve.DispatchMethod)
	}
	return meth, nil
}

// runBursts executes one engine run. One request is one RunMethod call on
// the tenant's dispatch entry (StopOnRespond stops the machine at the
// request's respond intrinsic); its latency is the queue wait plus the
// simulated CPU delta plus the fault I/O it incurred. On success the
// caller owns the returned run and must close it.
func (h *Harness) runBursts(sp burstSpec) (*burstRun, error) {
	cfg := sp.cfg.withDefaults()
	n, streams := len(sp.imgs), cfg.Streams
	meths := make([]*ir.Method, n)
	for i, w := range sp.ws {
		m, err := dispatchMethod(sp.imgs[i], w)
		if err != nil {
			return nil, err
		}
		meths[i] = m
	}

	o := h.newOS()
	o.CacheBudget = cfg.CacheBudget
	o.Policy = cfg.Policy
	if sp.trackAffinity {
		o.TrackAffinity = true
	}
	if h.Cfg.Observe {
		o.Obs = obs.NewRegistry()
	}
	r := &burstRun{
		os:      o,
		procs:   make([]*image.Process, n),
		files:   make([]*osim.File, n),
		tenants: make([]tenantRun, n),
	}
	for i, w := range sp.ws {
		if err := r.start(i, sp.imgs[i], w, sp.quotas); err != nil {
			r.close()
			return nil, err
		}
	}

	hists := make([]*obs.Histogram, n)
	tls := make([]*obs.Timeline, n)
	var streamHists []*obs.Histogram // per client, S > 1 only
	if o.Obs.Enabled() {
		cols := append([]string{"requests", "p50_nanos", "p99_nanos", "major", "minor",
			"refaults", "evicted"}, sp.residentCols...)
		for i := range hists {
			prefix := sp.obsPrefix(i)
			hists[i] = o.Obs.Histogram(prefix+".latency_nanos", obs.LatencyBuckets())
			tls[i] = o.Obs.Timeline(prefix+".burst", cols...)
			if streams == 1 {
				continue
			}
			for s := 0; s < streams; s++ {
				streamHists = append(streamHists, o.Obs.Histogram(
					fmt.Sprintf("%s.stream%02d.latency_nanos", prefix, s), obs.LatencyBuckets()))
			}
		}
	}
	clients := n * streams
	if cfg.RecordRequests {
		r.trace = obs.NewRequestTrace(clients, cfg.Bursts*cfg.BurstSize*clients)
		names := make([]string, n)
		for i, w := range sp.ws {
			names[i] = w.Name
		}
		r.trace.Workload = strings.Join(names, "+")
		r.trace.Layout = strings.Join(sp.layouts, "+")
	}
	// The server clock: one simulated CPU serving every tenant back to
	// back, so elapsed server time is every machine's CPU nanos plus all
	// the fault I/O any of them waited on.
	clock := func() float64 {
		t := 0.0
		for _, p := range r.procs {
			t += p.Machine.SimTimeNanos() + float64(p.Mapping.IOTime.Nanoseconds())
		}
		return t
	}

	all := make([][]float64, n)
	reqByClient := make([]int, clients) // per-client request ordinal, for routes
	reqID := 0
	for b := 0; b < cfg.Bursts; b++ {
		evict0 := make([]int64, n)
		for i, f := range r.files {
			evict0[i] = f.EvictedPages()
		}
		if b > 0 && cfg.PressurePct > 0 {
			o.ReclaimFraction(cfg.PressurePct)
			r.trace.Mark(obs.MarkReclaim, b, clock())
		}
		r.trace.Mark(obs.MarkBurst, b, clock())
		burst0 := make([]faultMark, n)
		for i, p := range r.procs {
			burst0[i] = markOf(p)
		}
		// Closed-loop clients: each submits its first request at the burst
		// start and its next one the instant the previous response
		// returns. The single CPU drains the union in the seeded
		// interleave; the gap between a request's arrival and its service
		// start is queue wait.
		burstStart := clock()
		arrival := make([]float64, clients)
		remaining := make([]int, clients)
		for c := range remaining {
			arrival[c] = burstStart
			remaining[c] = cfg.BurstSize
		}
		lats := make([][]float64, n)
		queueSum := make([]float64, n)
		queueMax := make([]float64, n)
		for t := 0; t < clients*cfg.BurstSize; t++ {
			c := pickStream(cfg, b, t, remaining)
			remaining[c]--
			i := c / streams
			k := reqByClient[c]
			reqByClient[c]++
			route := routeForStream(c, k, cfg, sp.ws[i].Serve.Routes)
			proc := r.procs[i]
			if streams > 1 {
				proc.Mapping.SetStream(c % streams)
			}
			serviceStart := clock()
			req0 := markOf(proc)
			if _, err := proc.Machine.RunMethod(meths[i], heap.IntVal(int64(route))); err != nil {
				r.close()
				return nil, fmt.Errorf("eval: serve %s burst %d request %d: %w", sp.ws[i].Name, b, t, err)
			}
			end := clock()
			service := end - serviceStart
			queue := serviceStart - arrival[c]
			lat := queue + service
			arrival[c] = end
			queueSum[i] += queue
			if queue > queueMax[i] {
				queueMax[i] = queue
			}
			lats[i] = append(lats[i], lat)
			hists[i].Observe(lat)
			if streamHists != nil {
				streamHists[c].Observe(lat)
			}
			d := markOf(proc).since(req0)
			r.trace.Record(obs.RequestRecord{
				ID: reqID, Stream: c, Burst: b, Route: route,
				StartNanos: serviceStart - queue, QueueNanos: queue,
				ServiceNanos: service, LatencyNanos: lat,
				Steps: d.steps, Faults: d.faults, MajorFaults: d.major,
				Refaults: d.refaults, IONanos: d.io.Nanoseconds(),
			})
			reqID++
		}
		for i, p := range r.procs {
			f, tn := r.files[i], &r.tenants[i]
			sort.Float64s(lats[i])
			d := markOf(p).since(burst0[i])
			bm := BurstMeasure{
				Burst:         b,
				Requests:      len(lats[i]),
				P50Nanos:      obs.QuantileExact(lats[i], 0.50),
				P90Nanos:      obs.QuantileExact(lats[i], 0.90),
				P99Nanos:      obs.QuantileExact(lats[i], 0.99),
				MeanNanos:     Mean(lats[i]),
				MajorFaults:   d.major,
				MinorFaults:   d.faults - d.major,
				Refaults:      d.refaults,
				IONanos:       d.io.Nanoseconds(),
				EvictedPages:  f.EvictedPages() - evict0[i],
				ResidentText:  f.ResidentInSection(image.SectionText),
				ResidentHeap:  f.ResidentInSection(image.SectionHeap),
				MaxQueueNanos: queueMax[i],
			}
			if len(lats[i]) > 0 {
				bm.MeanQueueNanos = queueSum[i] / float64(len(lats[i]))
			}
			resident := int64(o.TenantResidentPages(i))
			tn.bursts = append(tn.bursts, bm)
			tn.resident = append(tn.resident, resident)
			if tls[i] != nil {
				tls[i].Record(fmt.Sprintf("burst-%d", b), append([]int64{
					int64(bm.Requests), int64(bm.P50Nanos), int64(bm.P99Nanos),
					bm.MajorFaults, bm.MinorFaults, bm.Refaults, bm.EvictedPages,
				}, sp.residentRow(bm, resident)...)...)
			}
			all[i] = append(all[i], lats[i]...)
			if b >= 1 {
				tn.warm = append(tn.warm, lats[i]...)
			}
		}
	}
	for i := range r.tenants {
		tn := &r.tenants[i]
		if len(tn.warm) == 0 {
			// Single-burst configs: the cold burst is all there is.
			tn.warm = all[i]
		}
		sort.Float64s(tn.warm)
		tn.warmMean = Mean(tn.warm)
		tn.warmP99 = obs.QuantileExact(tn.warm, 0.99)
	}
	return r, nil
}

// start brings tenant i up: a tenant-tagged process over its image (with
// its residency quota), run to the first response.
func (r *burstRun) start(i int, img *image.Image, w workloads.Workload, quotas []int) error {
	o := r.os
	// Ownership is fixed when the file is registered, and NewProcess
	// touches pages while it builds the mapping, so the tenant id is the
	// OS default around process construction.
	o.DefaultTenant = i
	if i < len(quotas) && quotas[i] > 0 {
		o.SetTenantQuota(i, quotas[i])
	}
	proc, err := img.NewProcess(o, vm.Hooks{})
	o.DefaultTenant = -1
	if err != nil {
		return err
	}
	r.procs[i] = proc
	if r.files[i], err = img.File(o); err != nil {
		return err
	}
	proc.Machine.StopOnRespond = true
	if err := proc.Run(w.Args...); err != nil {
		return fmt.Errorf("eval: serve startup of %s: %w", w.Name, err)
	}
	st := proc.Stats()
	if st.TimeToResponse <= 0 {
		return fmt.Errorf("eval: serve %s never responded during startup", w.Name)
	}
	r.tenants[i].startupNanos = float64(st.TimeToResponse.Nanoseconds())
	return nil
}
