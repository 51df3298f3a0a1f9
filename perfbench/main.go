// Command perfbench is the repository benchmark. It runs one workload of
// the nimage toolchain through the public entry points users call, checks
// the outputs, and prints the workload's metrics as one JSON object on
// the last line of standard output: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a separately traced run. run.sh builds
// and runs it; README.md describes the workloads and metrics.
//
//	perfbench -workload coldstart|rebake|serve|fleet [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed a plain run uses. Seed 1009 is held out of
	// tuning, so a claimed gain can be confirmed on inputs it never saw.
	defaultSeed = 1
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// minPasses is the fewest timed passes a run makes.
	minPasses = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostMeta identifies the host and the build a result was measured on.
type hostMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Time       string `json:"time"`
}

// record is the results file of one run: everything the run measured.
type record struct {
	Host          hostMeta            `json:"host"`
	Workload      string              `json:"workload"`
	Trace         bool                `json:"trace"`
	Seconds       int                 `json:"seconds"`
	SetupS        []float64           `json:"setup_s"`
	PassS         []float64           `json:"pass_s"`
	TracedPassS   []float64           `json:"traced_pass_s,omitempty"`
	PassPeakMB    []float64           `json:"pass_peak_mb"`
	OpTail        tail                `json:"op_tail"`
	SimDigest     string              `json:"sim_digest"`
	Sim           simResult           `json:"sim"`
	CheckFailures map[string][]string `json:"check_failures,omitempty"`
	Errors        []string            `json:"errors,omitempty"`
	Result        result              `json:"result"`
	Spans         []span              `json:"spans,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: coldstart, rebake, serve or fleet")
	seed := fl.Uint64("seed", defaultSeed, "workload seed: selects the generated programs and the request streams")
	seconds := fl.Int("seconds", 18, "nominal length of the timed phase in seconds; sets the pass count (at least two)")
	trace := fl.Int("trace", 0, "0 prints the end-to-end metrics; 1 records spans and prints the per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory the results file is written under")
	commit := fl.String("commit", "unknown", "commit of the measured sources, recorded in the results")
	root := fl.String("root", ".", "repository root whose Go sources are hashed into the results")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fl.NArg() > 0:
		return fail("unexpected arguments %q", fl.Args())
	case *seconds < 1:
		return fail("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fail("-trace must be 0 or 1, got %d", *trace)
	}
	workers := runtime.NumCPU()
	b, err := newBench(*name, *seed, workers)
	if err != nil {
		return fail("%v", err)
	}
	srcHash, err := sourceHash(*root)
	if err != nil {
		return fail("hashing sources: %v", err)
	}
	rec := &record{
		Host: hostMeta{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
			Seed: *seed, Commit: *commit, SourceHash: srcHash,
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Workload: *name, Trace: *trace == 1, Seconds: *seconds,
	}
	passes := max(minPasses, int(math.Round(float64(*seconds)/nominalPassS[*name])))
	if err := measure(b, rec, passes); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	path, err := writeRecord(*out, rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: writing results: %v\n", err)
		return 1
	}
	for key, fs := range rec.CheckFailures {
		for _, f := range fs {
			fmt.Fprintf(stderr, "check failed: %s: %s\n", key, f)
		}
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(stderr, "error: %s\n", e)
	}
	host, _ := json.Marshal(rec.Host)
	sim, _ := json.Marshal(rec.Sim)
	last, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "sim_digest %s %s\n", *name, rec.SimDigest)
	fmt.Fprintf(stdout, "sim %s %s\n", *name, sim)
	fmt.Fprintf(stdout, "ops %s attempted=%d failed=%d tail=p%.2f (%d beyond, n=%d)\n",
		*name, rec.Result.Attempted, rec.Result.Failed, rec.OpTail.Pct, rec.OpTail.Beyond, rec.OpTail.N)
	fmt.Fprintf(stdout, "results %s\n", path)
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// measure sets the workload up, runs the timed passes, checks the outputs
// and fills rec. An error means the run could not be measured at all;
// failed operations are counted in rec instead.
func measure(b bench, rec *record, passes int) error {
	var tr *tracer
	if rec.Trace {
		tr = newTracer()
	}
	errorf := func(format string, a ...any) { rec.Errors = append(rec.Errors, fmt.Sprintf(format, a...)) }

	// Each setup starts afresh, so what it simulates must repeat exactly.
	var setupRoots []int
	var setupDigest string
	for i := 0; i < setupReps; i++ {
		id := tr.begin(-1, "setup")
		setupRoots = append(setupRoots, id)
		t0 := time.Now()
		err := b.setup(tr, id)
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		dg, err := b.repeatDigest()
		switch {
		case err != nil:
			errorf("setup %d: %v", i, err)
		case i == 0:
			setupDigest = dg
		case dg != setupDigest:
			errorf("setup %d: simulated outputs differ from setup 0 (digest %s, want %s)", i, dg, setupDigest)
		}
	}

	// Timed phase. A traced run alternates untraced and traced passes so
	// the difference between the two is the tracing overhead.
	var opsUntraced []op
	var ops []op
	var firstDigest string
	var traced passCost
	for i := 0; i < passes; i++ {
		ptr := tr
		if !rec.Trace || i%2 == 0 {
			ptr = nil
		}
		id := ptr.begin(-1, "pass")
		// Every pass starts from a collected heap, so no pass pays for
		// the garbage of setup or of the pass before it.
		runtime.GC()
		c0 := readCost()
		mem := startMemSampler()
		t0 := time.Now()
		passOps, err := b.pass(ptr, id, i)
		d := time.Since(t0).Seconds()
		rec.PassPeakMB = append(rec.PassPeakMB, mem.stop())
		ptr.end(id)
		if ptr != nil {
			traced.add(c0, readCost())
			rec.TracedPassS = append(rec.TracedPassS, d)
		} else {
			rec.PassS = append(rec.PassS, d)
			opsUntraced = append(opsUntraced, passOps...)
		}
		dg, derr := b.repeatDigest()
		switch {
		case err != nil:
			errorf("pass %d: %v", i, err)
		case derr != nil:
			errorf("pass %d: %v", i, derr)
		case i == 0:
			firstDigest = dg
		case dg != firstDigest:
			errorf("pass %d: simulated outputs differ from pass 0 (digest %s, want %s)", i, dg, firstDigest)
		}
		if err != nil || derr != nil || dg != firstDigest {
			for j := range passOps {
				if passOps[j].err == nil {
					passOps[j].err = fmt.Errorf("pass %d failed", i)
				}
			}
		}
		ops = append(ops, passOps...)
	}

	checkID := tr.begin(-1, "check")
	fails, err := b.check(tr, checkID)
	tr.end(checkID)
	if err != nil {
		errorf("check: %v", err)
	}
	rec.CheckFailures = fails
	rec.Sim = b.sim()
	if rec.SimDigest, err = b.simDigest(); err != nil {
		errorf("%v", err)
	}
	finite := func(name string, v *float64) {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			errorf("simulated %s is not a number", name)
			*v = 0
		}
	}
	finite("faults", &rec.Sim.Faults.Value)
	finite("millis", &rec.Sim.Millis.Value)
	for _, m := range []map[string]float64{rec.Sim.Named, rec.Sim.Layer} {
		for _, k := range sortedKeys(m) {
			v := m[k]
			finite(k, &v)
			m[k] = v
		}
	}

	var lc *layerCounts
	replayID := -1
	if rec.Trace {
		replayID = tr.begin(-1, "replay")
		lc, err = replay(tr, replayID, b.programs())
		tr.end(replayID)
		if err != nil {
			errorf("%v", err)
		}
	}

	res := &rec.Result
	res.Metrics = map[string]metric{}
	res.Attempted = len(ops)
	var lat []float64
	for _, o := range ops {
		if o.err != nil || failedOp(o.key, fails) {
			res.Failed++
		}
	}
	for _, o := range opsUntraced {
		lat = append(lat, float64(o.dur.Nanoseconds())/1e6)
	}
	opTail, tailOK := tailOf(lat)
	rec.OpTail = opTail
	if !tailOK && !rec.Trace {
		errorf("only %d ops: no percentile has %d ops beyond it", len(lat), tailBeyond)
	}

	if rec.Trace {
		rec.Spans = tr.snapshot()
		if lc != nil {
			for name, m := range layerMetrics(rec, lc, setupRoots, replayID, traced) {
				res.Metrics[name] = m
			}
		}
	} else {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", median(rec.SetupS))
		put("wall_s", "s", median(rec.PassS))
		put("max_rss_mb", "MB", median(rec.PassPeakMB))
		put("op_p50_ms", "ms", median(lat))
		put("op_tail_ms", "ms", opTail.Value)
		put("sim_faults", "count", rec.Sim.Faults.Value)
		put("sim_ms", "ms", rec.Sim.Millis.Value)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errorf("metric %s is not a number", name)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && len(rec.Errors) == 0 && len(fails) == 0
	return nil
}

// passCost accumulates the runtime's allocation and CPU counters over the
// traced passes.
type passCost struct {
	passes          int
	allocBytes      float64
	gcCPU, totalCPU float64
}

var costSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCost() [3]float64 {
	s := make([]metrics.Sample, len(costSamples))
	for i, n := range costSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func (c *passCost) add(before, after [3]float64) {
	c.passes++
	c.allocBytes += after[0] - before[0]
	c.gcCPU += after[1] - before[1]
	c.totalCPU += after[2] - before[2]
}

// memSampler records the peak of the memory the Go runtime holds from
// the OS (mapped and not released) while a pass runs.
type memSampler struct {
	done, exited chan struct{}
	peak         float64
}

// memSampleEvery is the sampling period: far below a pass, far above the
// cost of one read.
const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{}), exited: make(chan struct{})}
	m.peak = residentMB()
	go func() {
		defer close(m.exited)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-t.C:
				m.peak = max(m.peak, residentMB())
			}
		}
	}()
	return m
}

// stop ends sampling and returns the peak in megabytes.
func (m *memSampler) stop() float64 {
	close(m.done)
	<-m.exited
	return max(m.peak, residentMB())
}

// residentMB is the memory the Go runtime has mapped and not returned to
// the OS, in megabytes: the process's resident set apart from the binary.
func residentMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / 1e6
}

// sourceHash hashes every Go source and go.mod under root, so a result
// names the code it measured even where the checkout has no git metadata.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeRecord writes the run's record under dir/results, named after the
// run's time, workload, seed and mode.
func writeRecord(dir string, rec *record) (string, error) {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if rec.Trace {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%s.json",
		time.Now().UTC().Format("2006-01-02T15-04-05.000000000Z"), rec.Workload, rec.Host.Seed, mode))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
