package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"recordroute/internal/results"
	"recordroute/internal/server"
	"recordroute/internal/topology"
)

// service-fresh and service-replay: the campaign service (rrstudyd's
// server package) in process, behind an httptest loopback listener,
// driven by a closed loop of one client per CPU. Each client submits a
// Table 1 job, streams it to the end, fetches its render, checks it,
// and only then submits its next job.

// goldenTable1 is the repository's golden render of the golden spec.
const goldenTable1 = "internal/study/testdata/golden/table1_responsiveness.txt"

// jobScale and jobRate size every service job; at this scale the golden
// spec's render is goldenTable1.
const (
	jobScale = 0.25
	jobRate  = 200
)

// worldSeeds are the topology seeds jobs draw from (0 is the built-in
// default world); together with the set-up world they fill the
// service's four-plane cache exactly. warmWorld is the set-up world.
var (
	worldSeeds = []uint64{0, 11, 12}
	warmWorld  = uint64(13)
)

func goldenSpec() server.JobSpec { return jobSpec(0, 7) }

func jobSpec(world, shuffle uint64) server.JobSpec {
	return server.JobSpec{Experiment: "table1", Scale: jobScale, Rate: jobRate, Seed: world, ShuffleSeed: shuffle}
}

type serviceSession struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
	golden []byte
	// jobs[c] is client c's job list for the timed section.
	jobs [][]server.JobSpec
	// renders holds the first render of each spec, keyed by specKey;
	// any later render of the same spec must equal it.
	mu      sync.Mutex
	renders map[string][]byte
	// journalSize holds, for replay, each seeded journal's size.
	journalSize map[string]int64
	replay      bool
	// done[c] is what client c's timed jobs returned, for verify.
	done [][]jobOutcome
}

func specKey(sp server.JobSpec) string { return fmt.Sprintf("%d/%d", sp.Seed, sp.ShuffleSeed) }

// startService starts the daemon with its defaults (two workers,
// journals on, fsync off) on a fresh journal directory.
func startService(r *runner) (*serviceSession, error) {
	golden, err := os.ReadFile(goldenTable1)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.workDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &serviceSession{dir: dir, golden: golden, renders: make(map[string][]byte), journalSize: make(map[string]int64)}
	r.call(0, "server", "New", "", func() { s.srv, err = server.New(server.Config{DataDir: dir}) })
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.call(0, "server", "Handler", "", func() { s.hs = httptest.NewServer(s.srv.Handler()) })
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: r.shards, MaxIdleConnsPerHost: r.shards}}
	return s, nil
}

func (s *serviceSession) close() {
	s.hs.Close()
	s.srv.Drain()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

func setUpFresh(r *runner) (session, error) {
	s, err := startService(r)
	if err != nil {
		return nil, err
	}
	// One warm-up job on a world the timed jobs never use, so the
	// timed section starts with the service's code paths and heap warm
	// but its own planes still uncached.
	warm := jobSpec(warmWorld, 1)
	j, err := s.job(r, warm, "warm-up")
	if err != nil {
		s.close()
		return nil, err
	}
	r.setupCheck(s.check(r, warm, j))
	// Every world gets the same share of jobs whatever the seed, so the
	// amount of work does not depend on it; the seed draws the shuffle
	// seeds and the order. A pool of three shuffle seeds makes specs
	// repeat, so determinism is checked on every run.
	rng := rand.New(rand.NewPCG(r.seed, 0xf7e5))
	pool := []uint64{rng.Uint64N(1 << 20), rng.Uint64N(1 << 20), rng.Uint64N(1 << 20)}
	specs := make([]server.JobSpec, r.size.freshJobs)
	for i := range specs {
		specs[i] = jobSpec(worldSeeds[i%len(worldSeeds)], pool[i/len(worldSeeds)%len(pool)])
	}
	specs[0] = goldenSpec() // in place of a default-world job
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	s.jobs = deal(specs, r.shards)
	if r.tr != nil {
		r.layer("topology.clone_s", timeServiceClone(r))
	}
	return s, nil
}

func setUpReplay(r *runner) (session, error) {
	s, err := startService(r)
	if err != nil {
		return nil, err
	}
	// The golden spec, then the worlds in turn with seed-drawn shuffle
	// seeds, so the journals' sizes do not depend on the seed.
	rng := rand.New(rand.NewPCG(r.seed, 0x7e91))
	seeded := []server.JobSpec{goldenSpec()}
	for k := 0; len(seeded) < r.size.replaySpecs; k++ {
		seeded = append(seeded, jobSpec(worldSeeds[k%len(worldSeeds)], rng.Uint64N(1<<20)))
	}
	// Write one complete journal per spec, every client seeding its own
	// share concurrently. A resumed job reserves its journal, so each
	// client later replays only the journals it wrote.
	perClient := deal(seeded, r.shards)
	errs := make([]error, len(perClient))
	var wg sync.WaitGroup
	for c, specs := range perClient {
		wg.Add(1)
		go func(c int, specs []server.JobSpec) {
			defer wg.Done()
			for _, sp := range specs {
				sp.Journal = s.seedJournal(sp)
				j, err := s.job(r, sp, "seed")
				if err != nil {
					errs[c] = err
					return
				}
				r.setupCheck(s.check(r, sp, j))
				st, err := os.Stat(sp.Journal)
				if err != nil {
					errs[c] = err
					return
				}
				s.mu.Lock()
				s.journalSize[sp.Journal] = st.Size()
				s.mu.Unlock()
			}
		}(c, specs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	s.replay = true
	s.jobs = make([][]server.JobSpec, len(perClient))
	for c, specs := range perClient {
		for i := 0; i < r.size.replayJobs/len(perClient); i++ {
			sp := specs[i%len(specs)]
			sp.Journal = s.seedJournal(sp)
			sp.Resume = true
			s.jobs[c] = append(s.jobs[c], sp)
		}
	}
	if r.tr != nil {
		r.layer("topology.clone_s", timeServiceClone(r))
	}
	return s, nil
}

func (s *serviceSession) seedJournal(sp server.JobSpec) string {
	return filepath.Join(s.dir, fmt.Sprintf("seed-%d-%d.jsonl", sp.Seed, sp.ShuffleSeed))
}

// deal splits specs round-robin over n clients.
func deal(specs []server.JobSpec, n int) [][]server.JobSpec {
	if n > len(specs) {
		n = len(specs)
	}
	out := make([][]server.JobSpec, n)
	for i, sp := range specs {
		out[i%n] = append(out[i%n], sp)
	}
	return out
}

// timeServiceClone measures, outside the service, the snapshot-and-clone
// the service performs per job on a cached plane of the job size.
func timeServiceClone(r *runner) float64 {
	var topo *topology.Topology
	var err error
	r.call(0, "topology", "Build", "", func() { topo, err = topology.Build(topology.DefaultConfig(topology.Epoch2016).Scale(jobScale)) })
	if err != nil {
		return 0
	}
	return timeClone(r, topo)
}

func (s *serviceSession) run(r *runner) {
	before := s.scrape(r)
	builds := topology.Builds()
	s.done = make([][]jobOutcome, len(s.jobs))
	var wg sync.WaitGroup
	for c, specs := range s.jobs {
		wg.Add(1)
		go func(c int, specs []server.JobSpec) {
			defer wg.Done()
			for _, sp := range specs {
				t := time.Now()
				j, err := s.job(r, sp, "")
				s.done[c] = append(s.done[c], jobOutcome{spec: sp, job: j, err: err, latency: time.Since(t).Seconds()})
			}
		}(c, specs)
	}
	wg.Wait()
	after := s.scrape(r)
	d := func(name string) float64 { return after[name] - before[name] }
	r.layer("topology.builds", float64(topology.Builds()-builds))
	r.layer("topology.build_s", ratio(after["rrstudyd_plane_build_seconds_sum"], after["rrstudyd_plane_build_seconds_count"]))
	r.layer("server.cache_hit_frac", ratio(d("rrstudyd_cache_hits_total"), d("rrstudyd_cache_hits_total")+d("rrstudyd_cache_misses_total")))
	r.layer("server.affinity_hit_frac", ratio(d("rrstudyd_affinity_hits_total"), d("rrstudyd_affinity_hits_total")+d("rrstudyd_affinity_misses_total")))
}

// verify checks each client's jobs on a goroutine of its own, decoding
// the streams being most of a run's untimed work, then reports them in
// the order each client ran them.
func (s *serviceSession) verify(r *runner) {
	verdicts := make([][]verdict, len(s.done))
	var wg sync.WaitGroup
	for c, outcomes := range s.done {
		wg.Add(1)
		go func(c int, outcomes []jobOutcome) {
			defer wg.Done()
			for _, o := range outcomes {
				v := verdict{latency: o.latency}
				if o.err != nil {
					v.what = o.err.Error()
				} else {
					v.ok, v.what = s.check(r, o.spec, o.job)
				}
				verdicts[c] = append(verdicts[c], v)
			}
		}(c, outcomes)
	}
	wg.Wait()
	n := 0
	for _, vs := range verdicts {
		for _, v := range vs {
			r.op(v.latency, v.ok, v.what)
			n++
		}
	}
	r.mu.Lock()
	for _, m := range []string{"server.submit_s", "server.first_batch_s", "server.stream_s", "server.render_s"} {
		r.layers[m] = ratio(r.layers[m], float64(n)) // per-job means
	}
	r.layers["measure.journal_replay_mb_per_s"] = ratio(r.layers["journal.replayed_bytes"]/(1<<20), r.layers["journal.replay_stream_s"])
	r.mu.Unlock()
}

// jobOutcome is one timed job as its client saw it.
type jobOutcome struct {
	spec    server.JobSpec
	job     jobResult
	err     error
	latency float64
}

// jobResult is what a client saw of one job.
type jobResult struct {
	id      string
	stream  string // file holding the streamed results
	streamN int64
	render  []byte
	journal string
	timed   bool // submitted in the timed section, not in set-up
}

// job submits sp, streams it to completion and fetches its render,
// timing each call into the service as a span of the job.
func (s *serviceSession) job(r *runner, sp server.JobSpec, label string) (jobResult, error) {
	var j jobResult
	start := time.Now()
	root := r.tr.begin(0, "bench", "job "+label, "")
	defer func() {
		r.tr.tagJob(root, j.id)
		r.tr.end(root)
	}()
	body, _ := json.Marshal(sp)
	var status int
	var resp []byte
	var err error
	submit := r.call(root, "server", "POST /jobs", "", func() { status, resp, err = s.do("POST", "/jobs", body) })
	if err != nil {
		return j, fmt.Errorf("submit: %v", err)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		r.addLayer("server.refused", 1)
		return j, fmt.Errorf("submit refused: %d %s", status, bytes.TrimSpace(resp))
	}
	var ack struct{ ID string }
	if status != http.StatusAccepted || json.Unmarshal(resp, &ack) != nil || ack.ID == "" {
		return j, fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(resp))
	}
	j.id = ack.ID
	j.timed = label == ""
	j.journal = sp.Journal
	if j.journal == "" {
		j.journal = filepath.Join(s.dir, j.id+".jsonl")
	}
	var firstAt time.Time
	stream := r.call(root, "server", "GET /jobs/{id}/stream", j.id, func() {
		j.stream, j.streamN, firstAt, err = s.stream(j.id)
	})
	if err != nil {
		return j, fmt.Errorf("%s stream: %v", j.id, err)
	}
	render := r.call(root, "server", "GET /jobs/{id}/render", j.id, func() { status, j.render, err = s.do("GET", "/jobs/"+j.id+"/render", nil) })
	if err != nil || status != http.StatusOK {
		return j, fmt.Errorf("%s render: %d %v %s", j.id, status, err, bytes.TrimSpace(j.render))
	}
	if j.timed {
		r.addLayer("server.submit_s", submit)
		if !firstAt.IsZero() {
			r.addLayer("server.first_batch_s", firstAt.Sub(start).Seconds())
		}
		r.addLayer("server.stream_s", stream)
		r.addLayer("server.render_s", render)
		if sp.Resume {
			r.addLayer("journal.replayed_bytes", float64(s.journalSize[sp.Journal]))
			r.addLayer("journal.replay_stream_s", stream)
		}
	}
	return j, nil
}

func (s *serviceSession) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stream reads a job's result stream to its end into a file, as a
// client keeping the results would, and returns the file, its length
// and when the first batch arrived (zero when none did: a replayed job
// streams nothing).
func (s *serviceSession) stream(id string) (path string, n int64, first time.Time, err error) {
	resp, err := s.client.Get(s.hs.URL + "/jobs/" + id + "/stream")
	if err != nil {
		return "", 0, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, first, fmt.Errorf("status %d", resp.StatusCode)
	}
	path = filepath.Join(s.dir, "stream-"+id+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, first, err
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	for {
		k, rerr := resp.Body.Read(buf)
		if k > 0 {
			if n == 0 {
				first = time.Now()
			}
			if _, err := f.Write(buf[:k]); err != nil {
				return "", 0, first, err
			}
			n += int64(k)
		}
		if rerr == io.EOF {
			return path, n, first, f.Close()
		}
		if rerr != nil {
			return "", 0, first, rerr
		}
	}
}

// scrape reads the service's Prometheus counters.
func (s *serviceSession) scrape(r *runner) map[string]float64 {
	var body []byte
	r.call(0, "server", "GET /metrics", "", func() { _, body, _ = s.do("GET", "/metrics", nil) })
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// check is the service workloads' oracle for one job.
//
// Fresh: the render is a Table 1; the golden spec's render equals the
// repository's golden file;
// every render's probed and ping-responsive rows (which the shuffle
// seed cannot change, the ping phase being unshuffled) equal those
// recorded for its world; a spec seen before renders identically; and
// the stream carries one ping-RR result per destination from every VP
// plus the origin's three pings per destination.
//
// Replay: the render equals the fresh render that wrote the journal,
// the stream is empty and the journal did not grow, so nothing was
// probed.
func (s *serviceSession) check(r *runner, sp server.JobSpec, j jobResult) (bool, string) {
	render := r.corrupt(j.render)
	fail := func(format string, args ...any) (bool, string) {
		return false, fmt.Sprintf("%s %s: ", j.id, specKey(sp)) + fmt.Sprintf(format, args...)
	}
	key := specKey(sp)
	s.mu.Lock()
	prev, seen := s.renders[key]
	if !seen {
		s.renders[key] = render
	}
	s.mu.Unlock()
	if seen && !bytes.Equal(prev, render) {
		return fail("render differs from an earlier job of the same spec")
	}
	if s.replay {
		if !seen {
			return fail("no fresh render of this spec")
		}
		if j.streamN != 0 {
			return fail("replay streamed %d bytes of new results", j.streamN)
		}
		st, err := os.Stat(j.journal)
		if err != nil || st.Size() != s.journalSize[sp.Journal] {
			return fail("journal changed size during replay (%v)", err)
		}
		return true, ""
	}
	if !bytes.HasPrefix(render, []byte(paperHeaders["table1"])) {
		return fail("render starts %q, want %q", firstLine(render), paperHeaders["table1"])
	}
	if sp.Seed == 0 && sp.ShuffleSeed == 7 && !bytes.Equal(render, s.golden) {
		return fail("golden spec render differs from %s", goldenTable1)
	}
	if got, want := digest([]byte(invariantRows(render))), expected.WorldRows[strconv.FormatUint(sp.Seed, 10)]; got != want {
		return fail("probed/ping rows digest %s, want %s", got, want)
	}
	if st, err := os.Stat(j.journal); err == nil && j.timed {
		r.addLayer("measure.journal_bytes", float64(st.Size()))
	}
	return s.checkStream(r, j, render)
}

// invariantRows returns the render's "All Probed" and "Ping
// Responsive" rows, by IP and by AS.
func invariantRows(render []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(string(render), "\n") {
		if strings.HasPrefix(line, "All Probed") || strings.HasPrefix(line, "Ping Responsive") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

func (s *serviceSession) checkStream(r *runner, j jobResult, render []byte) (bool, string) {
	f, err := os.Open(j.stream)
	if err != nil {
		return false, fmt.Sprintf("%s: stream: %v", j.id, err)
	}
	defer f.Close()
	perVP, err := results.ReadJSONL(bufio.NewReader(f))
	if err != nil {
		return false, fmt.Sprintf("%s: stream: %v", j.id, err)
	}
	var dests int
	if f := strings.Fields(invariantRows(render)); len(f) > 2 {
		dests, _ = strconv.Atoi(f[2])
	}
	origins := 0
	for vp, rs := range perVP {
		switch len(rs) {
		case dests:
		case 4 * dests:
			origins++
		default:
			return false, fmt.Sprintf("%s: VP %s streamed %d results for %d destinations", j.id, vp, len(rs), dests)
		}
	}
	if dests == 0 || origins != 1 {
		return false, fmt.Sprintf("%s: stream has %d destinations and %d origin VPs, want >0 and 1", j.id, dests, origins)
	}
	if j.timed {
		probeLayers(r, perVP)
	}
	return true, ""
}
