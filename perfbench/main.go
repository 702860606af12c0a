// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator and the campaign service from inside a single
// process, checks every operation's output, and prints the metrics as
// JSON on the last line of standard output:
//
//	perfbench --workload paper-all --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-all, large-sweep, service-fresh, service-replay
// (NOTES.md gives the reason for each). With --trace 0 the result holds
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// computed from spans recorded around every call the benchmark makes
// into the program's packages. The spans are written to the work
// directory when the run ends.
//
// Every workload does a fixed amount of work, drawn from --seed and
// sized from --seconds so that it takes about that long on a 2-CPU
// host; a fixed amount makes every count metric repeat exactly across
// runs of one seed. paper-all is the exception: it is always one full
// reproduction.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"recordroute/internal/topology"
)

// metricDef names a metric and its unit. The lists below must match
// BENCHMARK.json; the self-test checks that they do.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"topology.builds", "count"},
	{"topology.clone_s", "s"},
	{"netsim.link_tx", "count"},
	{"netsim.router_fwd", "count"},
	{"netsim.rr_stamped", "count"},
	{"netsim.slowpath_frac", "ratio"},
	{"netsim.drops", "count"},
	{"netsim.ns_per_hop", "ns"},
	{"probe.attempts", "count"},
	{"probe.reply_frac", "ratio"},
	{"probe.timeouts", "count"},
	{"measure.fleet_init_s", "s"},
	{"measure.pingrr_all_s", "s"},
	{"study.table1_s", "s"},
	{"study.fig1_s", "s"},
	{"study.fig2_s", "s"},
	{"study.audit_s", "s"},
	{"study.fig3_s", "s"},
	{"study.fig4_s", "s"},
	{"study.fig5_s", "s"},
	{"study.atlas_s", "s"},
	{"study.lsrr_s", "s"},
	{"measure.journal_bytes", "bytes"},
	{"measure.journal_replay_mb_per_s", "MiB/s"},
	{"analysis.render_s", "s"},
	{"server.submit_s", "s"},
	{"server.first_batch_s", "s"},
	{"server.stream_s", "s"},
	{"server.render_s", "s"},
	{"server.cache_hit_frac", "ratio"},
	{"server.affinity_hit_frac", "ratio"},
	{"server.refused", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"self.bench_s", "s"},
	{"self.topology_s", "s"},
	{"self.measure_s", "s"},
	{"self.study_s", "s"},
	{"self.analysis_s", "s"},
	{"self.server_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
	{"trace.run_s", "s"},
}

// workloads maps each --workload name to its set-up function.
var workloads = map[string]func(r *runner) (session, error){
	"paper-all":      setUpPaper,
	"large-sweep":    setUpSweep,
	"service-fresh":  setUpFresh,
	"service-replay": setUpReplay,
}

// session is one set-up workload, ready for its timed section.
type session interface {
	// run is the timed section. It keeps every output for verify and
	// reports per-layer figures through runner.layer.
	run(r *runner)
	// verify runs the oracles on the outputs run kept and reports each
	// operation through runner.op. It is not timed, so checking costs
	// neither time nor allocations in the end-to-end metrics.
	verify(r *runner)
	// close releases everything set-up acquired.
	close()
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-all, large-sweep, service-fresh or service-replay")
		seed    = flag.Uint64("seed", 0, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "approximate length of the timed section")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		workDir = flag.String("work-dir", ".bench_build", "directory for journals and span dumps")
	)
	flag.Parse()
	setUp, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := newRunner(*seed, sizeFor(*seconds), *workDir)
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, info, err := execute(r, *name, setUp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(*workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		info["spans_file"] = path
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", f)
	}
	line, _ := json.Marshal(info)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", line)
	fmt.Println(string(line))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkCheckout fails fast outside a checkout of the repository: the
// benchmark reads the repository's golden files from the working
// directory.
func checkCheckout() error {
	if _, err := os.Stat(goldenTable1); err != nil {
		return fmt.Errorf("run from the root of a checkout of the repository: %v", err)
	}
	return nil
}

// execute sets the workload up setupReps times, runs the timed section
// on the last set-up, and assembles the result line plus an info line
// (host shape, tail percentile, the metrics of the other mode).
func execute(r *runner, name string, setUp func(r *runner) (session, error)) (result, map[string]any, error) {
	var setups []float64
	var s session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		r.resetLayers()
		r.tr.reset()
		t := time.Now()
		var err error
		if s, err = setUp(r); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gcBefore := gcCPU()
	cpuBefore := processCPU()
	t := time.Now()
	s.run(r)
	wall := time.Since(t).Seconds()
	cpuAfter := processCPU()
	gcAfter := gcCPU()
	runtime.ReadMemStats(&after)
	tv := time.Now()
	s.verify(r)
	verifyS := time.Since(tv).Seconds()

	lat := append([]float64(nil), r.ops...)
	sort.Float64s(lat)
	tailV, tailPct := tail(lat)
	if r.runS == 0 {
		r.runS = wall
	}
	if r.allocB == 0 {
		r.allocB = float64(after.TotalAlloc - before.TotalAlloc)
	}
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"run_s":       r.runS,
		"ops_per_s":   float64(len(lat)) / r.runS,
		"op_p50_s":    quantile(lat, 0.5),
		"op_tail_s":   tailV,
		"peak_rss_mb": peakRSSMiB(),
		"alloc_mb":    r.allocB / (1 << 20),
	}
	r.layer("go.gc_cpu_frac", ratio(gcAfter[0]-gcBefore[0], gcAfter[1]-gcBefore[1]))

	info := map[string]any{
		"workload": name, "seed": r.seed, "host": hostShape(),
		"op_samples": len(lat), "tail_percentile": tailPct, "op_latencies_s": r.ops,
		"wall_s":       wall,
		"cpu_user_s":   cpuAfter[0] - cpuBefore[0],
		"cpu_sys_s":    cpuAfter[1] - cpuBefore[1],
		"minor_faults": cpuAfter[2] - cpuBefore[2],
		"verify_s":     verifyS,
		"setup_s_each": setups, "failures": r.failures,
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0 && r.attempted > 0}
	if r.tr == nil {
		res.Metrics = pick(endToEnd, e2e)
	} else {
		spans, overhead := r.tr.overhead()
		r.layer("trace.spans", float64(spans))
		r.layer("trace.overhead_s", overhead)
		r.layer("trace.run_s", r.runS)
		for layer, v := range r.tr.selfTimes() {
			r.layer("self."+layer+"_s", v)
		}
		res.Metrics = pick(perLayer, r.layers)
		info["end_to_end_traced"] = e2e
	}
	return res, info, nil
}

// pick returns every metric of defs, zero where the workload does not
// reach the layer.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// size is how much work a run does.
type size struct {
	paperScale   float64               // paper-all topology scale; 1 is the medium profile
	sweepProfile topology.ScaleProfile // large-sweep world
	sweepDests   int                   // destinations per PingRRAll batch
	sweepBatches int
	freshJobs    int
	replayJobs   int
	replaySpecs  int  // journals service-replay writes in set-up
	full         bool // the outputs recorded in expect.json apply
}

// sizeFor sizes each workload to take about seconds on a 2-CPU host:
// a sweep batch takes about half a second, and the service completes
// about four fresh or ten replayed jobs a second.
func sizeFor(seconds int) size {
	return size{
		paperScale:   1,
		sweepProfile: topology.ScaleLarge,
		sweepDests:   1000,
		sweepBatches: 2 * seconds,
		freshJobs:    4 * seconds,
		replayJobs:   10 * seconds,
		replaySpecs:  4,
		full:         true,
	}
}

// runner carries one run's inputs and collects what the workload
// reports. Service clients report from several goroutines.
type runner struct {
	seed    uint64
	size    size
	shards  int
	workDir string
	tr      *tracer
	// inject corrupts the first output an oracle checks; the self-test
	// uses it to prove that a wrong output is counted as failed.
	inject bool

	mu  sync.Mutex
	ops []float64 // operation latencies, seconds
	// runS and allocB, when a workload sets them, replace the timed
	// section's wall time and allocated bytes: sequential workloads
	// count only their timed calls, not the oracle work between them.
	runS      float64
	allocB    float64
	attempted int
	failed    int
	failures  []string
	layers    map[string]float64
	injected  bool
}

func newRunner(seed uint64, sz size, workDir string) *runner {
	return &runner{seed: seed, size: sz, shards: runtime.NumCPU(), workDir: workDir,
		layers: make(map[string]float64)}
}

// op records one finished operation: its latency and whether its
// output passed the oracle.
func (r *runner) op(latency float64, ok bool, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, latency)
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, what)
	}
}

// setupCheck records the oracle's verdict on an output produced
// during set-up; a wrong one makes the run incorrect like any other.
func (r *runner) setupCheck(ok bool, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, "set-up: "+what)
	}
}

// injectNow reports true exactly once per run when inject is set: the
// caller then hands its oracle a wrong output.
func (r *runner) injectNow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inject || r.injected {
		return false
	}
	r.injected = true
	return true
}

// corrupt returns b, or a copy with its first byte changed when
// injectNow says so.
func (r *runner) corrupt(b []byte) []byte {
	if len(b) == 0 || !r.injectNow() {
		return b
	}
	c := append([]byte(nil), b...)
	c[0] ^= 0x01
	return c
}

func (r *runner) layer(name string, v float64) {
	r.mu.Lock()
	r.layers[name] = v
	r.mu.Unlock()
}

func (r *runner) addLayer(name string, v float64) {
	r.mu.Lock()
	r.layers[name] += v
	r.mu.Unlock()
}

func (r *runner) resetLayers() {
	r.mu.Lock()
	r.layers = make(map[string]float64)
	r.mu.Unlock()
}

// call times fn as one call into a layer of the program, recording a
// span under parent when tracing, and returns its length in seconds.
func (r *runner) call(parent int, layer, name, job string, fn func()) float64 {
	id := r.tr.begin(parent, layer, name, job)
	t := time.Now()
	fn()
	d := time.Since(t).Seconds()
	r.tr.end(id)
	return d
}

// gcCPU reads the Go runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU returns the process's user and system CPU seconds and its
// minor page faults.
func processCPU() [3]float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return [3]float64{}
	}
	return [3]float64{time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds(), float64(ru.Minflt)}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostShape records what a number was measured on. A GOMAXPROCS above
// the CPU count measures time-slicing, not parallelism; such a run is
// flagged.
func hostShape() map[string]any {
	procs := runtime.GOMAXPROCS(0)
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit, "source_sha256": sourceDigest(),
		"gomaxprocs_exceeds_nproc": procs > runtime.NumCPU(),
	}
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the code measured where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
