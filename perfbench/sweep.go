package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"time"

	"recordroute/internal/measure"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// large-sweep: the large-profile world built once, then one ping-RR from
// every VP to each destination of a seed-drawn sample, issued as a
// sequence of PingRRAll batches. The sample is what makes the route
// plane's working set outgrow the per-router memos and CPU caches.

type sweepSession struct {
	topo     *topology.Topology
	pc       *measure.ParallelCampaign
	batches  [][]netip.Addr
	vpAddr   map[string]netip.Addr
	verdicts []verdict
}

func setUpSweep(r *runner) (session, error) {
	cfg, err := topology.ProfileConfig(topology.Epoch2016, r.size.sweepProfile)
	if err != nil {
		return nil, err
	}
	s := &sweepSession{vpAddr: make(map[string]netip.Addr)}
	r.layer("topology.build_s", r.call(0, "topology", "Build", "", func() { s.topo, err = topology.Build(cfg) }))
	if err != nil {
		return nil, err
	}
	r.layer("measure.fleet_init_s", r.call(0, "measure", "NewParallelCampaignFrom", "", func() {
		s.pc, err = measure.NewParallelCampaignFrom(s.topo, r.shards)
		if err == nil {
			s.pc.VPNames() // the fleet is built on first use
		}
	}))
	if err != nil {
		return nil, err
	}
	for _, vp := range s.topo.VPs {
		s.vpAddr[vp.Name] = vp.Addr
	}
	n := r.size.sweepDests * r.size.sweepBatches
	if n > len(s.topo.Dests) {
		return nil, fmt.Errorf("sample of %d destinations exceeds the world's %d", n, len(s.topo.Dests))
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x5eed))
	perm := rng.Perm(len(s.topo.Dests))
	for b := 0; b < r.size.sweepBatches; b++ {
		batch := make([]netip.Addr, r.size.sweepDests)
		for i := range batch {
			batch[i] = s.topo.Dests[perm[b*r.size.sweepDests+i]].Addr
		}
		s.batches = append(s.batches, batch)
	}
	if r.tr != nil {
		r.layer("topology.clone_s", timeClone(r, s.topo))
	}
	return s, nil
}

func (s *sweepSession) close() { s.topo, s.pc = nil, nil }

func (s *sweepSession) run(r *runner) {
	before := s.pc.Metrics("before").Merged
	builds := topology.Builds()
	opts := probe.Options{Rate: 200, Timeout: 2 * time.Second}
	order := shuffler(r.seed)
	var ms runtime.MemStats
	for i, batch := range s.batches {
		var res map[string][]probe.Result
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		d := r.call(0, "measure", "ParallelCampaign.PingRRAll", "", func() { res = s.pc.PingRRAll(batch, opts, order) })
		runtime.ReadMemStats(&ms)
		r.allocB += float64(ms.TotalAlloc - alloc)
		r.runS += d
		// Checking between batches, outside the timed calls, keeps the
		// results from piling up in the heap the campaign collects.
		probeLayers(r, res)
		if r.injectNow() {
			for vp, rs := range res {
				res[vp] = rs[1:]
				break
			}
		}
		ok, what := s.check(r, i, batch, res)
		s.verdicts = append(s.verdicts, verdict{d, ok, what})
	}
	r.layer("measure.pingrr_all_s", r.runS)
	r.layer("topology.builds", float64(topology.Builds()-builds))
	netsimLayers(r, obs.Delta(before, s.pc.Metrics("after").Merged), r.runS)
}

func (s *sweepSession) verify(r *runner) {
	for _, v := range s.verdicts {
		r.op(v.latency, v.ok, v.what)
	}
}

// verdict is one operation's latency and the oracle's verdict on it.
type verdict struct {
	latency float64
	ok      bool
	what    string
}

// check is large-sweep's oracle for one batch. Every VP returns one
// result per destination of the batch. Every reply's recorded route
// starts with the stamping routers of the world's forward path from
// the VP (topology.ForwardStampPath, computed from the route plane
// without the packet engine). At seed 0 and full size the batch's reply
// count equals the one recorded in expect.json.
func (s *sweepSession) check(r *runner, i int, batch []netip.Addr, res map[string][]probe.Result) (bool, string) {
	fail := func(format string, args ...any) (bool, string) {
		return false, fmt.Sprintf("large-sweep batch %d: ", i) + fmt.Sprintf(format, args...)
	}
	if len(res) != len(s.vpAddr) {
		return fail("%d VPs answered, want %d", len(res), len(s.vpAddr))
	}
	want := make(map[netip.Addr]bool, len(batch))
	for _, d := range batch {
		want[d] = true
	}
	replies := 0
	for vp, rs := range res {
		if len(rs) != len(batch) {
			return fail("VP %s returned %d results for %d destinations", vp, len(rs), len(batch))
		}
		seen := make(map[netip.Addr]bool, len(rs))
		for _, x := range rs {
			if !want[x.Dst] || seen[x.Dst] {
				return fail("VP %s: unexpected or repeated destination %v", vp, x.Dst)
			}
			seen[x.Dst] = true
			if x.Type != probe.EchoReply {
				continue
			}
			replies++
			if x.HasRR && !s.stampsMatch(s.vpAddr[vp], x) {
				return fail("VP %s to %v: recorded route %v disagrees with the forward path", vp, x.Dst, x.RR)
			}
		}
	}
	if r.size.full && r.seed == 0 && i < len(expected.SweepReplies) && replies != expected.SweepReplies[i] {
		return fail("%d replies, want %d", replies, expected.SweepReplies[i])
	}
	return true, ""
}

// stampsMatch compares a reply's recorded route with the stamping
// routers on the forward path, over the slots both cover.
func (s *sweepSession) stampsMatch(src netip.Addr, x probe.Result) bool {
	k := 0
	for _, hop := range s.topo.ForwardStampPath(src, x.Dst) {
		if k == len(x.RR) {
			break
		}
		if rt := s.topo.RouterByAddr(hop); rt == nil || rt.Behavior().NoStampRR {
			continue
		}
		if x.RR[k] != hop {
			return false
		}
		k++
	}
	return true
}

// shuffler gives each VP its own seed-drawn destination order, as the
// paper's probing does.
func shuffler(seed uint64) func(vp string, dests []netip.Addr) []netip.Addr {
	return func(vp string, dests []netip.Addr) []netip.Addr {
		var h uint64 = 14695981039346656037 // FNV-1a over the VP name
		for i := 0; i < len(vp); i++ {
			h ^= uint64(vp[i])
			h *= 1099511628211
		}
		out := append([]netip.Addr(nil), dests...)
		rand.New(rand.NewPCG(seed, h)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}
