package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/verify"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// Build seeds of the images the benchmark builds itself (output checks,
// recipes, layer replay). The eval harness derives its own.
const (
	regularSeed      = 0x9e1a5eed
	instrumentedSeed = 0x9e1a1457
	optimizedSeed    = 0x9e1a0b71
)

// splitmix64 derives independent values from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generated returns n distinct seeded programs for the workload seed.
func generated(seed uint64, n int) []workloads.Workload {
	var out []workloads.Workload
	seen := map[uint64]bool{}
	for x := seed; len(out) < n; x++ {
		g := 1 + splitmix64(x)%9999 // workloads name them Gen%04d
		if !seen[g] {
			seen[g] = true
			out = append(out, workloads.Generated(g))
		}
	}
	return out
}

// serveSeed is the request-stream seed of serve and fleet; never 0, which
// the harness would replace by its default.
func serveSeed(seed uint64) uint64 { return splitmix64(seed^0x5e12e) | 1 }

// prebuild builds every program once, each inside a workloads.build span,
// and returns workloads whose Build hands back the built program, so the
// timed phase never rebuilds IR.
func prebuild(tr *tracer, parent int, ws []workloads.Workload) []workloads.Workload {
	out := make([]workloads.Workload, len(ws))
	for i, w := range ws {
		var p *ir.Program
		tr.call(parent, "workloads.build", func() { p = w.Build() })
		w.Build = func() *ir.Program { return p }
		out[i] = w
	}
	return out
}

// newHarness returns a fresh eval harness (no memoized results) holding
// the prebuilt programs: the harness caches programs by workload name, so
// every later lookup of these names, including workloads.ByName inside
// the fleet engine, gets the prebuilt program.
func newHarness(workers int, progs []workloads.Workload) *eval.Harness {
	cfg := eval.DefaultConfig()
	cfg.Builds = 1
	cfg.Iterations = 1
	cfg.Workers = workers
	h := eval.NewHarness(cfg)
	for _, w := range progs {
		h.Program(w)
	}
	return h
}

// op is one timed unit of a workload's batch.
type op struct {
	key string
	dur time.Duration
	err error
}

// runPool runs f(i) for every key on a fixed set of workers and returns
// the ops in key order. Each call is timed and, when traced, wrapped in a
// span named name.
func runPool(tr *tracer, parent int, name string, workers int, keys []string, f func(i int) error) []op {
	return runPoolThen(tr, parent, name, workers, keys, f, nil)
}

// runPoolThen is runPool with an untimed then(i) after each successful
// op, on the same worker.
func runPoolThen(tr *tracer, parent int, name string, workers int, keys []string, f func(i int) error, then func(i int)) []op {
	lanes := make([][]string, len(keys))
	for i, k := range keys {
		lanes[i] = []string{k}
	}
	var laneThen func(lane, j int)
	if then != nil {
		laneThen = func(lane, _ int) { then(lane) }
	}
	return runLanes(tr, parent, name, workers, lanes, func(lane, _ int) error { return f(lane) }, laneThen)
}

// runLanes runs lanes of ops on a fixed set of workers: the ops of one
// lane in order on one worker, different lanes at once. It returns the
// ops lane by lane. Each op f(lane, j) is timed and, when traced, wrapped
// in a span named name; then(lane, j), when not nil, follows each
// successful op untimed.
func runLanes(tr *tracer, parent int, name string, workers int, lanes [][]string, f func(lane, j int) error, then func(lane, j int)) []op {
	ops := make([][]op, len(lanes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l := int(next.Add(1) - 1)
				if l >= len(lanes) {
					return
				}
				for j, key := range lanes[l] {
					id := tr.begin(parent, name)
					t0 := time.Now()
					err := f(l, j)
					ops[l] = append(ops[l], op{key: key, dur: time.Since(t0), err: err})
					tr.end(id)
					if err == nil && then != nil {
						then(l, j)
					}
				}
			}
		}()
	}
	wg.Wait()
	var out []op
	for _, lane := range ops {
		out = append(out, lane...)
	}
	return out
}

// forEach runs f(i) for i in [0, n) on a fixed set of workers.
func forEach(workers, n int, f func(i int)) {
	keys := make([]string, n)
	runPool(nil, -1, "", workers, keys, func(i int) error { f(i); return nil })
}

// digest hashes a JSON rendering of v. encoding/json writes floats in
// their shortest exact form, so equal digests mean bit-identical values.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// layoutDigest hashes an image's placement: section extents, every CU's
// signature and offset in layout order, and every object's type and
// offset in layout order. Two images with equal digests lay out the
// binary identically.
func layoutDigest(img *image.Image) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	num(img.TextSection.Off)
	num(img.TextSection.Len)
	num(img.HeapSection.Off)
	num(img.HeapSection.Len)
	num(img.FileSize)
	for _, cu := range img.CULayout {
		h.Write([]byte(cu.Signature()))
		num(img.CUOffset[cu])
	}
	for _, o := range img.ObjLayout {
		h.Write([]byte(o.TypeName()))
		num(o.Offset)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderValue renders a printed value independently of object identity
// and placement.
func renderValue(v heap.Value) string {
	switch v.Kind {
	case heap.VInt:
		return "i:" + strconv.FormatInt(v.Bits, 10)
	case heap.VFloat:
		return "f:" + strconv.FormatInt(v.Bits, 10)
	}
	switch o := v.Ref; {
	case o == nil:
		return "null"
	case o.IsString():
		return "s:" + o.Str
	case o.IsArray:
		return o.TypeName() + "[" + strconv.Itoa(o.Len()) + "]"
	default:
		return o.TypeName()
	}
}

// coldRun runs an image once on a fresh OS, to completion or to its first
// response for services, and returns what it printed, its statistics and
// its vm step count.
func coldRun(img *image.Image, w workloads.Workload) (prints []string, st image.Stats, steps int64, err error) {
	hooks := vm.Hooks{OnPrint: func(tid int, v heap.Value) {
		prints = append(prints, strconv.Itoa(tid)+"|"+renderValue(v))
	}}
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), hooks)
	if err != nil {
		return nil, st, 0, err
	}
	defer proc.Close()
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		return nil, st, 0, fmt.Errorf("running %s: %w", w.Name, err)
	}
	return prints, proc.Stats(), proc.Machine.Steps, nil
}

// startMillis is a cold run's simulated time to first response (services)
// or to exit, in milliseconds.
func startMillis(st image.Stats, service bool) float64 {
	if service {
		return float64(st.TimeToResponse.Nanoseconds()) / 1e6
	}
	return float64(st.Total.Nanoseconds()) / 1e6
}

func faultCount(st image.Stats) float64 {
	return float64(st.TextFaults.Total() + st.HeapFaults.Total())
}

func compilerConfig() graal.Config { return eval.DefaultConfig().Compiler }

func dumpMode(w workloads.Workload) profiler.DumpMode {
	if w.Service {
		// Killed services need durable trace buffers.
		return profiler.MemoryMapped
	}
	return profiler.DumpOnFull
}

// regularImage builds the unmodified image of a program.
func regularImage(w workloads.Workload) (*image.Image, error) {
	return image.Build(w.Build(), image.Options{
		Kind: image.KindRegular, Compiler: compilerConfig(), BuildSeed: regularSeed,
	})
}

// optimizedImage runs the public profile-guided pipeline for one layout.
func optimizedImage(w workloads.Workload, strategy string) (*image.Image, error) {
	res, err := image.BuildOptimized(w.Build(), image.PipelineOptions{
		Compiler:         compilerConfig(),
		Strategy:         strategy,
		InstrumentedSeed: instrumentedSeed,
		OptimizedSeed:    optimizedSeed,
		Mode:             dumpMode(w),
		Args:             w.Args,
		Service:          w.Service,
	})
	if err != nil {
		return nil, err
	}
	return res.Optimized, nil
}

// checkImage checks an optimized or baked image against its program: it
// must be a permutation of the unprofiled optimized build with the same
// seed and compiler, and it must print what the regular build printed.
// It returns the image's cold-run statistics and one line per failure.
func checkImage(w workloads.Workload, img *image.Image, regularPrints []string) (image.Stats, []string) {
	ref, err := image.Build(img.Program, image.Options{
		Kind: image.KindOptimized, Compiler: img.Opts.Compiler,
		BuildSeed: img.Opts.BuildSeed, MaxPaths: img.Opts.MaxPaths,
	})
	if err != nil {
		return image.Stats{}, []string{"reference build: " + err.Error()}
	}
	fails := verify.PermutationFailures(ref, img)
	prints, st, _, err := coldRun(img, w)
	if err != nil {
		return st, append(fails, "run: "+err.Error())
	}
	if d := printDiff(regularPrints, prints); d != "" {
		fails = append(fails, "output differs from the regular build: "+d)
	}
	return st, fails
}

// printDiff describes the first difference between two print streams, ""
// when they are equal.
func printDiff(want, got []string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("print %d is %q, want %q", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d prints, want %d", len(got), len(want))
	}
	return ""
}

// coldResult is one cold run's observable output and statistics.
type coldResult struct {
	prints []string
	stats  image.Stats
}

// regularRuns builds and runs the regular image of every program, by
// program name.
func regularRuns(workers int, progs []workloads.Workload) (map[string]coldResult, error) {
	out := make([]coldResult, len(progs))
	errs := make([]error, len(progs))
	forEach(workers, len(progs), func(i int) {
		img, err := regularImage(progs[i])
		if err != nil {
			errs[i] = err
			return
		}
		out[i].prints, out[i].stats, _, errs[i] = coldRun(img, progs[i])
	})
	m := make(map[string]coldResult, len(progs))
	for i, w := range progs {
		if errs[i] != nil {
			return nil, fmt.Errorf("regular build of %s: %w", w.Name, errs[i])
		}
		m[w.Name] = out[i]
	}
	return m, nil
}

// checkLayouts builds every (program, layout) pair through the public
// pipeline and checks each image. It returns the failures by
// "program/layout" key.
func checkLayouts(tr *tracer, parent, workers int, progs []workloads.Workload, layouts func(workloads.Workload) []string) (map[string][]string, error) {
	regular, err := regularRuns(workers, progs)
	if err != nil {
		return nil, err
	}
	type pair struct {
		w workloads.Workload
		s string
	}
	var pairs []pair
	var keys []string
	for _, w := range progs {
		for _, s := range layouts(w) {
			pairs = append(pairs, pair{w, s})
			keys = append(keys, w.Name+"/"+s)
		}
	}
	fails := make([][]string, len(pairs))
	runPool(tr, parent, "check", workers, keys, func(i int) error {
		img, err := optimizedImage(pairs[i].w, pairs[i].s)
		if err != nil {
			fails[i] = []string{"pipeline: " + err.Error()}
			return nil
		}
		_, fails[i] = checkImage(pairs[i].w, img, regular[pairs[i].w.Name].prints)
		return nil
	})
	out := map[string][]string{}
	for i, f := range fails {
		if len(f) > 0 {
			out[keys[i]] = f
		}
	}
	return out, nil
}

// evalLayouts is the cold-start figure set; traceLayouts the six
// trace-based layouts of the paper that rebake serializes.
func evalLayouts() []string { return core.EvalStrategyNames() }

func traceLayouts() []string {
	var out []string
	for _, s := range core.Registry() {
		if s.Eval && len(s.Instr) > 0 {
			out = append(out, s.Name)
		}
	}
	return out
}
