package eval

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nimage/internal/obs"
)

// TestFleetSingleTenantMatchesServeTelemetry extends the one-tenant
// back-compat contract to the telemetry surfaces: with request recording
// and the obs registry on, a one-tenant fleet and MeasureServe record the
// same per-request trace and the same latency histogram.
func TestFleetSingleTenantMatchesServeTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Iterations = 1
	cfg.Observe = true
	h := NewHarness(cfg)
	fcfg := FleetConfig{
		Tenants: []TenantSpec{{Workload: "serve-api"}},
		Bursts:  3, BurstSize: 8, PressurePct: 60,
		HotPct: 80, HotRoutes: 3, Seed: 7,
		RecordRequests: true,
	}
	fouts, err := h.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := fcfg.serveConfig()
	scfg.RecordRequests = true
	souts, err := h.MeasureServe(serveWorkload(t, "serve-api"), "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	fo, so := fouts[0], souts[0]
	if fo.Requests == nil || so.Requests == nil {
		t.Fatal("request recording produced no trace")
	}
	if !reflect.DeepEqual(fo.Requests, so.Requests) {
		a, _ := json.Marshal(fo.Requests)
		b, _ := json.Marshal(so.Requests)
		t.Fatalf("one-tenant fleet trace diverges from serve:\nfleet: %s\nserve: %s", a, b)
	}
	fh := histogramNamed(t, fo.Report, "fleet.tenant00.latency_nanos")
	sh := histogramNamed(t, so.Report, "serve.latency_nanos")
	if fh.Count != sh.Count || fh.Count != int64(fcfg.Bursts*fcfg.BurstSize) {
		t.Fatalf("latency histogram counts: fleet %d, serve %d, want %d",
			fh.Count, sh.Count, fcfg.Bursts*fcfg.BurstSize)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a, b := fh.Quantile(q), sh.Quantile(q); a != b {
			t.Errorf("latency p%v: fleet %v, serve %v", q*100, a, b)
		}
	}
}

func histogramNamed(t *testing.T, snap *obs.Snapshot, name string) obs.HistogramPoint {
	t.Helper()
	if snap == nil {
		t.Fatalf("no snapshot for %s", name)
	}
	for _, hp := range snap.Histograms {
		if hp.Name == name {
			return hp
		}
	}
	t.Fatalf("snapshot has no histogram %s", name)
	return obs.HistogramPoint{}
}

// TestConcurrentRunsShareImages: serve and fleet runs that share one
// memoized image may run at the same time (the harness is safe for
// concurrent use); each must measure exactly what it measures alone. Run
// under -race this also catches unsynchronized access to the image's
// build-time heap.
func TestConcurrentRunsShareImages(t *testing.T) {
	w := serveWorkload(t, "serve-api")
	at := func(pressure int) ServeConfig {
		scfg := serveTestConfig()
		scfg.PressurePct = pressure
		return scfg
	}
	fcfg := fleetTestConfig()
	newHarness := func() *Harness {
		cfg := DefaultConfig()
		cfg.Builds = 1
		cfg.Iterations = 1
		return NewHarness(cfg)
	}
	// The serial reference: every scenario alone on a fresh harness.
	ref := newHarness()
	want := map[int]*ServeOutcome{}
	for _, p := range []int{30, 70, 10} {
		outs, err := ref.MeasureServe(w, "", at(p))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = outs[0]
	}
	wantFleet, err := ref.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(name string, jobs ...func(h *Harness) error) {
		h := newHarness()
		// Build the shared images first so the measurements overlap.
		if _, err := h.serveImage(w, LayoutBaseline, 0); err != nil {
			t.Fatal(err)
		}
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for i, job := range jobs {
			wg.Add(1)
			go func(i int, job func(h *Harness) error) {
				defer wg.Done()
				errs[i] = job(h)
			}(i, job)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	serveJob := func(p int) func(h *Harness) error {
		return func(h *Harness) error {
			outs, err := h.MeasureServe(w, "", at(p))
			if err != nil {
				return err
			}
			if !sameSimOutcome(outs[0], want[p]) {
				t.Errorf("serve at %d%% pressure diverges when run concurrently", p)
			}
			return nil
		}
	}
	run("two pressures of one image", serveJob(30), serveJob(70))
	run("fleet beside serve", serveJob(10), func(h *Harness) error {
		fouts, err := h.MeasureFleet(fcfg)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(fouts)
		b, _ := json.Marshal(wantFleet)
		if string(a) != string(b) {
			t.Error("fleet diverges when run beside a serve run on a shared tenant image")
		}
		return nil
	})
}
