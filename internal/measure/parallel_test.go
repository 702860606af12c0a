package measure

import (
	"net/netip"
	"reflect"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

func testConfig() topology.Config {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.2)
	cfg.Seed = 11
	return cfg
}

// normalize strips the one field the determinism contract exempts:
// destination IP-ID counters observe only shard-local traffic, so the
// absolute IDs stamped on replies differ across executors.
func normalize(rs []probe.Result) []probe.Result {
	out := append([]probe.Result(nil), rs...)
	for i := range out {
		out[i].ReplyIPID = 0
	}
	return out
}

func comparePerVP(t *testing.T, label string, seq, par map[string][]probe.Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d VPs reference vs %d under test", label, len(seq), len(par))
	}
	for vp, srs := range seq {
		prs, ok := par[vp]
		if !ok {
			t.Errorf("%s: VP %s missing from results under test", label, vp)
			continue
		}
		if len(srs) != len(prs) {
			t.Errorf("%s: VP %s has %d reference vs %d results under test", label, vp, len(srs), len(prs))
			continue
		}
		ns, np := normalize(srs), normalize(prs)
		for i := range ns {
			if !reflect.DeepEqual(ns[i], np[i]) {
				t.Errorf("%s: VP %s result %d differs:\nreference:  %+v\nunder test: %+v",
					label, vp, i, ns[i], np[i])
				break
			}
		}
	}
}

// oracle is the executor tests' reference: every VP's batch started on
// one engine, then one eng.Run() — the plain single-engine schedule,
// sharing no code with ParallelCampaign.
type oracle struct {
	eng *netsim.Engine
	vps []*VantagePoint
}

func newOracle(topo *topology.Topology) *oracle {
	o := &oracle{eng: topo.Net.Engine()}
	for i, v := range topo.VPs {
		o.vps = append(o.vps, NewVantagePoint(v.Name, v.Host, o.eng, uint16(0x4000+i)))
	}
	return o
}

// oracleRun starts one batch per VP in VP order, then drains the
// engine; start may skip a VP by not calling done.
func oracleRun[T any](o *oracle, start func(vp *VantagePoint, done func(T))) map[string]T {
	out := make(map[string]T)
	for _, vp := range o.vps {
		vp := vp
		start(vp, func(v T) { out[vp.Name] = v })
	}
	o.eng.Run()
	return out
}

// TestParallelCampaignMatchesSequential is the measure-level determinism
// contract: every campaign primitive returns what the oracle's plain
// single-engine loop returns (modulo ReplyIPID), both on a one-replica
// campaign over its own topology and on a K=3 cloned fleet. Running it
// under -race also exercises the shard worker pool.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	cfg := testConfig()
	opts := probe.Options{Rate: 100}
	build := func() *topology.Topology {
		topo, err := topology.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	refTopo := build()
	ref := newOracle(refTopo)
	own := build()
	single := NewSingleEngineCampaign(own, own.VPs)
	fleet, err := NewParallelCampaign(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	execs := []struct {
		name string
		pc   *ParallelCampaign
	}{{"single", single}, {"K=3", fleet}}

	dests := make([]netip.Addr, 0, 40)
	for _, d := range refTopo.Dests {
		dests = append(dests, d.Addr)
		if len(dests) == 40 {
			break
		}
	}
	if len(dests) < 10 {
		t.Fatalf("only %d destinations at test scale", len(dests))
	}

	// Shuffle per VP like the study does, so orderings are VP-specific.
	orderFor := func(vp string, ds []netip.Addr) []netip.Addr {
		out := append([]netip.Addr(nil), ds...)
		rot := len(vp) % len(out)
		return append(out[rot:], out[:rot]...)
	}
	wantRR := oracleRun(ref, func(vp *VantagePoint, done func([]probe.Result)) {
		vp.PingRRBatch(orderFor(vp.Name, dests), opts, done)
	})
	for _, e := range execs {
		comparePerVP(t, "PingRRAll/"+e.name, wantRR, e.pc.PingRRAll(dests, opts, orderFor))
	}

	// Grouped plain pings.
	wantPing := oracleRun(ref, func(vp *VantagePoint, done func([][]probe.Result)) {
		vp.PingBatch(dests[:10], 2, opts, done)
	})
	for _, e := range execs {
		got := e.pc.PingAll(dests[:10], 2, opts)
		if len(got) != len(wantPing) {
			t.Fatalf("PingAll/%s: VP count %d vs %d", e.name, len(got), len(wantPing))
		}
		for vp, gs := range wantPing {
			gp := got[vp]
			if len(gs) != len(gp) {
				t.Errorf("PingAll/%s: VP %s group count %d vs %d", e.name, vp, len(gs), len(gp))
				continue
			}
			for i := range gs {
				if !reflect.DeepEqual(normalize(gs[i]), normalize(gp[i])) {
					t.Errorf("PingAll/%s: VP %s dest %d differs", e.name, vp, i)
					break
				}
			}
		}
	}

	// Per-VP target lists; the last VP has none and must be absent.
	perVP := make(map[string][]netip.Addr)
	ttls := make(map[string][]uint8)
	for i, vp := range ref.vps[:len(ref.vps)-1] {
		ds := dests[i%len(dests) : min(i%len(dests)+5, len(dests))]
		perVP[vp.Name] = ds
		for j := range ds {
			ttls[vp.Name] = append(ttls[vp.Name], uint8(2+j*3))
		}
	}
	wantUDP := oracleRun(ref, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.PingRRUDPBatch(ds, opts, done)
		}
	})
	for _, e := range execs {
		comparePerVP(t, "PingRRUDPAll/"+e.name, wantUDP, e.pc.PingRRUDPAll(perVP, opts))
	}

	// Clocks must agree across shards and with the oracle's engine after
	// every primitive (phases start at the same virtual instant).
	for _, e := range execs {
		for i, rep := range e.pc.replicas {
			if rep.eng.Now() != ref.eng.Now() {
				t.Errorf("%s shard %d clock %v != oracle clock %v", e.name, i, rep.eng.Now(), ref.eng.Now())
			}
		}
	}

	// The contention experiments' primitives run on the one-replica
	// campaign only.
	wantTTL := oracleRun(ref, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TTLPingRRBatch(ds, ttls[vp.Name], opts, done)
		}
	})
	comparePerVP(t, "TTLPingRRAll/single", wantTTL, single.TTLPingRRAll(perVP, ttls, opts))

	topts := TraceOptions{MaxTTL: 12, StartRate: 50}
	wantTR := oracleRun(ref, func(vp *VantagePoint, done func([]Trace)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TracerouteBatch(ds[:2], topts, done)
		}
	})
	traced := make(map[string][]netip.Addr, len(perVP))
	for name, ds := range perVP {
		traced[name] = ds[:2]
	}
	gotTR := single.TracerouteAll(traced, topts)
	if len(wantTR) != len(traced) || len(wantTTL) != len(perVP) {
		t.Fatalf("oracle traced %d and TTL-probed %d VPs, want %d", len(wantTR), len(wantTTL), len(perVP))
	}
	if !reflect.DeepEqual(wantTR, gotTR) {
		t.Errorf("TracerouteAll/single differs from the oracle")
	}
	if now := single.replicas[0].eng.Now(); now != ref.eng.Now() {
		t.Errorf("single clock %v != oracle clock %v", now, ref.eng.Now())
	}
}

// TestParallelCampaignShardFailureIsolated is the partial-results
// contract: a shard that panics mid-primitive is recovered, reported
// through ShardErrors with its lost VPs, and the surviving shards keep
// returning complete results — in that primitive and in later ones.
func TestParallelCampaignShardFailureIsolated(t *testing.T) {
	par, err := NewParallelCampaign(testConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	names := par.VPNames() // forces replica build
	if len(names) < 3 {
		t.Fatalf("only %d VPs at test scale", len(names))
	}

	dests := make([]netip.Addr, 0, 10)
	for _, d := range par.replicas[0].topo.Dests {
		dests = append(dests, d.Addr)
		if len(dests) == 10 {
			break
		}
	}

	// Kill shard 1 mid-primitive: the injected event panics while the
	// shard engine drains its probe batches, before any batch completes.
	par.replicas[1].eng.Schedule(0, func() { panic("injected shard fault") })

	dead := make(map[string]bool)
	for i, n := range names {
		if i%3 == 1 {
			dead[n] = true
		}
	}

	opts := probe.Options{Rate: 100}
	got := par.PingRRAll(dests, opts, nil)

	errs := par.ShardErrors()
	if len(errs) != 1 {
		t.Fatalf("ShardErrors = %v, want exactly the killed shard", errs)
	}
	se := errs[0]
	if se.Shard != 1 || se.Err == nil {
		t.Errorf("ShardError = shard %d err %v, want shard 1 with an error", se.Shard, se.Err)
	}
	if len(se.VPs) != len(dead) {
		t.Errorf("ShardError names %d VPs, want %d", len(se.VPs), len(dead))
	}
	for _, n := range se.VPs {
		if !dead[n] {
			t.Errorf("ShardError names VP %s, which lives on another shard", n)
		}
	}

	for _, n := range names {
		rs, ok := got[n]
		if dead[n] {
			if ok {
				t.Errorf("dead-shard VP %s returned %d results", n, len(rs))
			}
			if par.VP(n) != nil {
				t.Errorf("VP(%q) on a dead shard is non-nil", n)
			}
			continue
		}
		if !ok || len(rs) != len(dests) {
			t.Errorf("surviving VP %s: %d results, want %d", n, len(rs), len(dests))
		}
	}

	// A later primitive still runs on the survivors without re-reporting
	// new failures.
	again := par.PingAll(dests[:3], 1, opts)
	for _, n := range names {
		if dead[n] {
			if _, ok := again[n]; ok {
				t.Errorf("dead-shard VP %s resurfaced in a later primitive", n)
			}
			continue
		}
		if len(again[n]) != 3 {
			t.Errorf("surviving VP %s: %d ping groups, want 3", n, len(again[n]))
		}
	}
	if got := par.ShardErrors(); len(got) != 1 {
		t.Errorf("ShardErrors grew to %d after a healthy primitive", len(got))
	}
}

// TestParallelCampaignShardClamp checks that absurd shard counts clamp
// to the VP population instead of building empty replicas.
func TestParallelCampaignShardClamp(t *testing.T) {
	par, err := NewParallelCampaign(testConfig(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	names := par.VPNames()
	if got := par.NumShards(); got != len(names) {
		t.Errorf("NumShards = %d, want clamp to %d VPs", got, len(names))
	}
	if par.VP(names[0]) == nil {
		t.Errorf("VP(%q) = nil after clamp", names[0])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
