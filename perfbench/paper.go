package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"recordroute/internal/measure"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// paper-all: the nine experiments `rrstudy -experiment all` runs, in its
// order and with its options, at the medium profile, each rendered. The
// seed picks the per-VP destination order (study.Options.ShuffleSeed);
// seed 0 is rrstudy's own run, whose render digests expect.json holds.

type paperSession struct {
	cfg     topology.Config
	st      *study.Study
	outputs []paperOutput
}

type paperOutput struct {
	name   string
	render []byte
	err    error
}

// paperExperiment is one of the nine: it runs through the study layer
// and returns what to render.
type paperExperiment struct {
	name string
	run  func(p *paperSession, resp *study.Responsiveness) (renderer, error)
}

type renderer interface{ Render(w io.Writer) }

var paperExperiments = []paperExperiment{
	{"table1", func(p *paperSession, resp *study.Responsiveness) (renderer, error) { return resp, nil }},
	{"fig1", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunReachability(resp), nil
	}},
	{"fig2", func(p *paperSession, _ *study.Responsiveness) (renderer, error) {
		// rrstudy runs the epoch comparison without a shuffle seed.
		o := p.st.Opts
		return study.RunEpochComparison(p.cfg, study.Options{Rate: o.Rate, Timeout: o.Timeout, Shards: o.Shards})
	}},
	{"audit", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunStampAudit(resp, 0), nil
	}},
	{"fig3", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunCloudDistance(resp, 0), nil
	}},
	{"fig4", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunRateLimit(resp, 1000), nil
	}},
	{"fig5", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunTTLStudy(resp, 0), nil
	}},
	{"atlas", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunAtlas(resp, 0), nil
	}},
	{"lsrr", func(p *paperSession, resp *study.Responsiveness) (renderer, error) {
		return p.st.RunSourceRouteCheck(resp, 0), nil
	}},
}

// paperHeaders is how each experiment's render starts, whatever the
// seed.
var paperHeaders = map[string]string{
	"table1": "== Table 1:", "fig1": "== §3.3 / Figure 1:", "fig2": "== §3.4 / Figure 2:",
	"audit": "== §3.5:", "fig3": "== §3.6 / Figure 3:", "fig4": "== §4.1 / Figure 4:",
	"fig5": "== §4.2 / Figure 5:", "atlas": "== topology atlas:", "lsrr": "== historical contrast:",
}

func setUpPaper(r *runner) (session, error) {
	cfg := topology.DefaultConfig(topology.Epoch2016)
	if r.size.paperScale != 1 {
		cfg = cfg.Scale(r.size.paperScale)
	}
	p := &paperSession{cfg: cfg}
	var topo *topology.Topology
	var err error
	r.layer("topology.build_s", r.call(0, "topology", "Build", "", func() { topo, err = topology.Build(cfg) }))
	if err != nil {
		return nil, err
	}
	r.call(0, "study", "NewFromTopology", "", func() {
		p.st, err = study.NewFromTopology(topo, study.Options{Shards: r.shards, ShuffleSeed: r.seed})
	})
	if err != nil {
		return nil, err
	}
	// The fleet is built lazily on first use; set-up pays for it here.
	r.layer("measure.fleet_init_s", r.call(0, "measure", "Study.Fleet", "", func() {
		if pc, ok := p.st.Fleet().(*measure.ParallelCampaign); ok {
			pc.VPNames()
		}
	}))
	if r.tr != nil {
		r.layer("topology.clone_s", timeClone(r, topo))
	}
	return p, nil
}

// timeClone measures the snapshot-and-clone path that fleet replicas
// and service jobs take over a built world. It runs only in traced
// runs, after set-up is timed, so it does not add to setup_s.
func timeClone(r *runner, topo *topology.Topology) float64 {
	var snap *topology.Snapshot
	return r.call(0, "topology", "SnapshotOf", "", func() { snap = topology.SnapshotOf(topo) }) +
		r.call(0, "topology", "Snapshot.Clone", "", func() { snap.Clone() })
}

func (p *paperSession) close() { p.st = nil }

func (p *paperSession) run(r *runner) {
	before := p.st.Metrics("before").Merged
	builds := topology.Builds()
	var resp *study.Responsiveness
	for _, ex := range paperExperiments {
		id := r.tr.begin(0, "bench", "experiment "+ex.name, "")
		var res renderer
		var err error
		var out bytes.Buffer
		runS := r.call(id, "study", ex.name, "", func() {
			if resp == nil {
				resp = p.st.RunResponsiveness()
			}
			res, err = ex.run(p, resp)
		})
		renderS := 0.0
		if err == nil {
			renderS = r.call(id, "analysis", ex.name+".Render", "", func() { res.Render(&out) })
		}
		r.tr.end(id)
		r.layer("study."+ex.name+"_s", runS)
		r.addLayer("analysis.render_s", renderS)
		r.runS += runS + renderS
		p.outputs = append(p.outputs, paperOutput{name: ex.name, render: out.Bytes(), err: err})
	}
	r.layer("topology.builds", float64(topology.Builds()-builds))
	netsimLayers(r, obs.Delta(before, p.st.Metrics("after").Merged), r.runS)
	probeLayers(r, resp.PerVP)
}

// verify reports the reproduction as one operation: the nine
// experiments are too unlike in length for a median over them to mean
// anything, so the per-experiment times are per-layer metrics instead.
func (p *paperSession) verify(r *runner) {
	ok := true
	var what []string
	for _, o := range p.outputs {
		if good, w := p.check(r, o.name, o.err, r.corrupt(o.render)); !good {
			ok = false
			what = append(what, w)
		}
	}
	r.op(r.runS, ok, strings.Join(what, "; "))
}

// check is paper-all's oracle. Every render starts with its
// experiment's header. At full size: at seed 0 each render's digest
// equals the one recorded in expect.json (rrstudy's output); at every
// seed the Figure 2 render, whose comparison takes no shuffle seed,
// matches its digest, and so do Table 1's probed and ping-responsive
// rows, which come from the unshuffled ping phase.
func (p *paperSession) check(r *runner, name string, err error, render []byte) (bool, string) {
	if err != nil {
		return false, fmt.Sprintf("paper-all %s: %v", name, err)
	}
	if !bytes.HasPrefix(render, []byte(paperHeaders[name])) {
		return false, fmt.Sprintf("paper-all %s: render starts %q, want %q", name, firstLine(render), paperHeaders[name])
	}
	if !r.size.full {
		return true, ""
	}
	if name == "table1" {
		if got, want := digest([]byte(invariantRows(render))), expected.PaperTable1Rows; got != want {
			return false, fmt.Sprintf("paper-all table1: probed/ping rows digest %s, want %s", got, want)
		}
	}
	if r.seed != 0 && name != "fig2" {
		return true, ""
	}
	if got, want := digest(render), expected.Paper[name]; got != want {
		return false, fmt.Sprintf("paper-all %s: render digest %s, want %s", name, got, want)
	}
	return true, ""
}

// netsimLayers reports the simulator's counters over the timed section.
// ns_per_hop spreads the probing wall time over the links traversed.
func netsimLayers(r *runner, d obs.Counters, busyS float64) {
	var drops uint64
	for k, v := range d {
		if strings.Contains(k, ".drop.") {
			drops += v
		}
	}
	r.layer("netsim.link_tx", float64(d["link.tx"]))
	r.layer("netsim.router_fwd", float64(d["router.fwd"]))
	r.layer("netsim.rr_stamped", float64(d["router.rr.stamped"]))
	r.layer("netsim.slowpath_frac", ratio(float64(d["router.slowpath"]), float64(d["router.fwd"])))
	r.layer("netsim.drops", float64(drops))
	r.layer("netsim.ns_per_hop", ratio(busyS*1e9, float64(d["link.tx"])))
}

// probeLayers counts probe outcomes in returned results.
func probeLayers(r *runner, perVP map[string][]probe.Result) {
	var attempts, replies, timeouts int
	for _, rs := range perVP {
		for _, res := range rs {
			attempts++
			switch res.Type {
			case probe.EchoReply:
				replies++
			case probe.NoResponse:
				timeouts++
			}
		}
	}
	r.addLayer("probe.attempts", float64(attempts))
	r.addLayer("probe.replies", float64(replies))
	r.addLayer("probe.timeouts", float64(timeouts))
	r.mu.Lock()
	r.layers["probe.reply_frac"] = ratio(r.layers["probe.replies"], r.layers["probe.attempts"])
	r.mu.Unlock()
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}
