package recordroute

import (
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// smallInternet builds a fast test Internet.
func smallInternet(t *testing.T) *Internet {
	t.Helper()
	in, err := New(WithScale(0.15), WithProbeRate(200))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewRejectsBadScale(t *testing.T) {
	if _, err := New(WithScale(-1)); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestInternetInventory(t *testing.T) {
	in := smallInternet(t)
	if len(in.VPNames()) == 0 || len(in.Destinations()) == 0 {
		t.Fatal("empty inventory")
	}
	if len(in.CloudNames()) != 3 {
		t.Errorf("clouds = %v", in.CloudNames())
	}
	if in.NumASes() == 0 {
		t.Error("no ASes")
	}
	if len(in.MLabVPs())+len(in.PlanetLabVPs()) != len(in.VPNames()) {
		t.Error("platform split inconsistent")
	}
	if kind, err := in.VPKind(in.MLabVPs()[0]); err != nil || kind != "mlab" {
		t.Errorf("VPKind = %q, %v", kind, err)
	}
	if _, err := in.VPKind("nope"); err == nil {
		t.Error("unknown VP accepted")
	}
}

// OriginASN is -1 for addresses outside the plan, the zero Addr and
// IPv6 addresses included.
func TestOriginASNOutsidePlan(t *testing.T) {
	in := smallInternet(t)
	if asn := in.OriginASN(in.Destinations()[0]); asn < 0 {
		t.Fatalf("OriginASN(destination) = %d", asn)
	}
	for _, a := range []netip.Addr{{}, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("10.0.0.1")} {
		if asn := in.OriginASN(a); asn != -1 {
			t.Errorf("OriginASN(%v) = %d, want -1", a, asn)
		}
	}
}

// respondingDest finds a destination that answers ping-RR from vp.
func respondingDest(t *testing.T, in *Internet, vp string) (dst Reply, addr string) {
	t.Helper()
	for _, d := range in.Destinations() {
		r, err := in.PingRR(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Responded && len(r.RecordedRoute) > 0 {
			return r, d.String()
		}
	}
	t.Fatal("no destination answered ping-RR")
	return Reply{}, ""
}

func TestPingAndPingRR(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1] // late VPs are never rate-limited
	reply, addr := respondingDest(t, in, vp)
	if reply.Kind != "echo-reply" {
		t.Errorf("kind = %q", reply.Kind)
	}
	if reply.From.String() != addr {
		t.Errorf("reply from %v, probed %v", reply.From, addr)
	}
	if reply.RTT <= 0 {
		t.Error("non-positive RTT")
	}
	if reply.DestinationStamped && reply.SlotsRemaining < 0 {
		t.Error("inconsistent RR accounting")
	}
}

func TestTracerouteFacade(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, _ := respondingDest(t, in, vp)
	tr, err := in.Traceroute(vp, reply.From)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Reached {
		t.Fatalf("traceroute did not reach %v", reply.From)
	}
	last := tr.Hops[len(tr.Hops)-1]
	if !last.Final || last.Addr != reply.From {
		t.Errorf("final hop %+v", last)
	}
}

func TestPingRRWithTTLQuotesRoute(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, _ := respondingDest(t, in, vp)
	low, err := in.PingRRWithTTL(vp, reply.From, 2)
	if err != nil {
		t.Fatal(err)
	}
	if low.Kind != "time-exceeded" {
		t.Fatalf("kind = %q, want time-exceeded", low.Kind)
	}
	if !low.HasRecordRoute {
		t.Error("no RR option recovered from the quoted header")
	}
}

func TestReversePathFacade(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	// Try nearby destinations (stamped with room to spare) until one
	// yields a non-empty reverse path; a destination whose reply path
	// crosses only non-stamping routers legitimately yields none.
	tried := 0
	for _, d := range in.Destinations() {
		r, err := in.PingRR(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.DestinationStamped || r.SlotsRemaining <= 2 {
			continue
		}
		tried++
		rp, err := in.ReversePath(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Segments < 1 {
			t.Fatal("no segments")
		}
		if len(rp.Hops) > 0 {
			return // success
		}
		if tried >= 5 {
			break
		}
	}
	if tried == 0 {
		t.Skip("no close destination")
	}
	t.Errorf("no reverse path found across %d close destinations", tried)
}

func TestTable1Facade(t *testing.T) {
	in := smallInternet(t)
	var sb strings.Builder
	sum := in.Table1(&sb)
	if sum.Probed == 0 || sum.PingResponsive == 0 || sum.RRResponsive == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.RRRatioByIP <= 0.5 || sum.RRRatioByIP > 1 {
		t.Errorf("by-IP ratio %v", sum.RRRatioByIP)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("render missing header")
	}
	// Cached: a second call is instant and identical.
	again := in.Table1(nil)
	if again != sum {
		t.Error("cached responsiveness differs")
	}
}

func TestRunAllRendersEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	in := smallInternet(t)
	var sb strings.Builder
	rep, err := in.RunAll(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table1.Probed == 0 || rep.Reachability.ReachableFrac <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2", "§3.5", "Figure 3", "Figure 4", "Figure 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// TestRunAllFailsOnShardLoss: a panic contained inside a campaign shard
// must fail RunAll rather than let it render partial results.
func TestRunAllFailsOnShardLoss(t *testing.T) {
	in, err := New(WithScale(0.15), WithProbeRate(200), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	in.st.Topo.Net.Engine().Schedule(0, func() { panic("injected fault") })
	var sb strings.Builder
	if _, err := in.RunAll(&sb); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("RunAll error = %v, want the injected shard panic", err)
	}
	if strings.Contains(sb.String(), "Figure 1") {
		t.Error("RunAll kept rendering after the shard loss")
	}
}

func TestTimeoutOptionApplies(t *testing.T) {
	in := MustNew(WithScale(0.15), WithTimeout(500*time.Millisecond), WithProbeRate(200))
	// An unresponsive address inside the plan times out at the custom
	// timeout, visible as a short virtual-clock run.
	var dead string
	for _, d := range in.Destinations() {
		r, err := in.Ping(in.MLabVPs()[len(in.MLabVPs())-1], d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Responded {
			dead = d.String()
			break
		}
	}
	if dead == "" {
		t.Skip("every destination responded")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestPingTSFacade(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, _ := respondingDest(t, in, vp)
	tsr, err := in.PingTS(vp, reply.From)
	if err != nil {
		t.Fatal(err)
	}
	if !tsr.Responded {
		t.Fatal("ping-ts unanswered by a ping-RR-responsive destination")
	}
	if len(tsr.Entries) == 0 {
		t.Fatal("no timestamp entries")
	}
	for i := 1; i < len(tsr.Entries); i++ {
		if tsr.Entries[i].Millis < tsr.Entries[i-1].Millis {
			t.Errorf("timestamps regress: %+v", tsr.Entries)
		}
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	in := smallInternet(t)
	dst := in.Destinations()[0]
	if _, err := in.Ping("no-such-vp", dst); err == nil {
		t.Error("Ping accepted unknown VP")
	}
	if _, err := in.Traceroute("no-such-vp", dst); err == nil {
		t.Error("Traceroute accepted unknown VP")
	}
	if _, err := in.ReversePath("no-such-vp", dst); err == nil {
		t.Error("ReversePath accepted unknown VP")
	}
	if _, err := in.PingTS("no-such-vp", dst); err == nil {
		t.Error("PingTS accepted unknown VP")
	}
}

func TestCloudVPCanProbe(t *testing.T) {
	in := smallInternet(t)
	cloud := in.CloudNames()[0]
	responded := false
	for _, d := range in.Destinations()[:50] {
		r, err := in.PingRR(cloud, d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Responded {
			responded = true
			break
		}
	}
	if !responded {
		t.Error("cloud VP could not complete any ping-RR")
	}
}

func TestReportMarshalsToJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	in := smallInternet(t)
	rep, err := in.RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table1 != rep.Table1 || back.Atlas != rep.Atlas {
		t.Error("report did not round-trip through JSON")
	}
}

func TestClassifyDestinationFacade(t *testing.T) {
	in := smallInternet(t)
	// A destination known reachable (from the sweep helper).
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, addr := respondingDest(t, in, vp)
	_ = reply
	c := in.ClassifyDestination(mustAddr(addr))
	if c.Class != "rr-reachable" && c.Class != "reverse-measurable" {
		t.Errorf("class = %q for an RR-answering destination", c.Class)
	}
	if c.BestSlot == 0 {
		t.Error("no best slot for a reachable destination")
	}
}
