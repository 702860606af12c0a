package analysis

import (
	"net/netip"
	"testing"

	"recordroute/internal/probe"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// mkResult builds an echo-reply ping-RR result with the given recorded
// hops out of total slots.
func mkRR(dst netip.Addr, hops []netip.Addr, total int) probe.Result {
	return probe.Result{
		Spec:         probe.Spec{Dst: dst, Kind: probe.PingRR},
		Type:         probe.EchoReply,
		HasRR:        true,
		RR:           hops,
		RRTotalSlots: total,
		RRFull:       len(hops) == total,
	}
}

func TestPingResponsiveAnyOfThree(t *testing.T) {
	dests := []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}
	grouped := [][]probe.Result{
		{{Type: probe.NoResponse}, {Type: probe.EchoReply}, {Type: probe.NoResponse}},
		{{Type: probe.NoResponse}, {Type: probe.NoResponse}, {Type: probe.NoResponse}},
	}
	got := PingResponsive(dests, grouped)
	if !got[dests[0]] {
		t.Error("one reply of three not counted as responsive")
	}
	if got[dests[1]] {
		t.Error("all-timeout dest counted as responsive")
	}
}

func TestAggregateRRClassifications(t *testing.T) {
	d1, d2, d3 := a("20.0.0.1"), a("20.0.0.2"), a("20.0.0.3")
	r1, r2 := a("9.0.0.1"), a("9.0.0.2")
	perVP := map[string][]probe.Result{
		// vp-a reaches d1 at slot 3; d2 responds but never appears
		// (free slots remain → false-negative signature); d3 times out.
		"vp-a": {
			mkRR(d1, []netip.Addr{r1, r2, d1}, 9),
			mkRR(d2, []netip.Addr{r1, r2}, 9),
			{Spec: probe.Spec{Dst: d3}, Type: probe.NoResponse},
		},
		// vp-b reaches d1 closer, at slot 2.
		"vp-b": {
			mkRR(d1, []netip.Addr{r2, d1, r1}, 9),
		},
	}
	stats := AggregateRR(perVP)
	s1 := stats[d1]
	if s1 == nil || !s1.RRResponsive() || !s1.RRReachable() {
		t.Fatalf("d1 stats: %+v", s1)
	}
	if s1.Responses != 2 || s1.MinDestSlot != 2 || s1.ClosestVP != "vp-b" {
		t.Errorf("d1: %+v", s1)
	}
	if !s1.WithinHops(8) || s1.WithinHops(1) {
		t.Errorf("d1 WithinHops wrong")
	}
	s2 := stats[d2]
	if s2 == nil || !s2.RRResponsive() || s2.RRReachable() {
		t.Fatalf("d2 stats: %+v", s2)
	}
	if !s2.SawFreeSlots {
		t.Error("d2 free-slot signature missed")
	}
	if stats[d3] != nil {
		t.Error("timeout created stats for d3")
	}
}

func TestAggregateRRRepliesWithoutOption(t *testing.T) {
	d := a("20.0.0.9")
	perVP := map[string][]probe.Result{
		"vp": {{Spec: probe.Spec{Dst: d, Kind: probe.PingRR}, Type: probe.EchoReply, HasRR: false}},
	}
	stats := AggregateRR(perVP)
	if stats[d].RRResponsive() {
		t.Error("reply without copied option counted as RR-responsive")
	}
	if stats[d].RepliesWithoutRR != 1 {
		t.Errorf("RepliesWithoutRR = %d", stats[d].RepliesWithoutRR)
	}
}

func TestApplyAliasesReclassifies(t *testing.T) {
	dst, alias := a("30.0.0.1"), a("30.0.0.129")
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.9.9.9"), alias}, 9)},
	}
	stats := AggregateRR(perVP)
	if stats[dst].RRReachable() {
		t.Fatal("reachable before alias resolution")
	}
	aliasOf := func(x netip.Addr) netip.Addr {
		if x == alias || x == dst {
			return dst
		}
		return x
	}
	n := ApplyAliases(stats, perVP, aliasOf)
	if n != 1 {
		t.Fatalf("reclassified %d, want 1", n)
	}
	if !stats[dst].RRReachable() || stats[dst].MinDestSlot != 2 {
		t.Errorf("after aliases: %+v", stats[dst])
	}
}

func TestApplyAliasesIgnoresUnrelatedHops(t *testing.T) {
	dst := a("30.0.0.2")
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.9.9.9")}, 9)},
	}
	stats := AggregateRR(perVP)
	if n := ApplyAliases(stats, perVP, func(x netip.Addr) netip.Addr { return x }); n != 0 {
		t.Errorf("identity aliasing reclassified %d", n)
	}
}

func TestApplyRRUDPReclassifies(t *testing.T) {
	dst := a("40.0.0.1")
	// The destination answered ping-RR without stamping itself.
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.0.0.1"), a("9.0.0.2")}, 9)},
	}
	stats := AggregateRR(perVP)
	if stats[dst].RRReachable() {
		t.Fatal("unexpectedly reachable")
	}
	udp := map[string][]probe.Result{
		"vp": {{
			Spec:         probe.Spec{Dst: dst, Kind: probe.PingRRUDP},
			Type:         probe.PortUnreachable,
			HasRR:        true,
			QuotedRR:     true,
			RR:           []netip.Addr{a("9.0.0.1"), a("9.0.0.2")},
			RRTotalSlots: 9,
		}},
	}
	if n := ApplyRRUDP(stats, udp); n != 1 {
		t.Fatalf("reclassified %d, want 1", n)
	}
	if !stats[dst].RRReachable() || stats[dst].MinDestSlot != 3 {
		t.Errorf("after RRudp: %+v", stats[dst])
	}
}

func TestApplyRRUDPIgnoresFullOptions(t *testing.T) {
	dst := a("40.0.0.2")
	stats := map[netip.Addr]*RRDestStat{dst: {Addr: dst, Responses: 1, SlotsByVP: map[string]int{}}}
	full := make([]netip.Addr, 9)
	for i := range full {
		full[i] = a("9.0.0.1")
	}
	udp := map[string][]probe.Result{
		"vp": {{
			Spec:         probe.Spec{Dst: dst, Kind: probe.PingRRUDP},
			Type:         probe.PortUnreachable,
			HasRR:        true,
			RR:           full,
			RRTotalSlots: 9,
			RRFull:       true,
		}},
	}
	if n := ApplyRRUDP(stats, udp); n != 0 {
		t.Errorf("full-option quote reclassified %d", n)
	}
}

func rrReply(dst string, total int, hops ...string) probe.Result {
	r := probe.Result{
		Spec:         probe.Spec{Dst: a(dst), Kind: probe.PingRR},
		Type:         probe.EchoReply,
		HasRR:        true,
		RRTotalSlots: total,
	}
	for _, h := range hops {
		r.RR = append(r.RR, a(h))
	}
	return r
}

func TestClassifyLadder(t *testing.T) {
	dst := "100.1.0.1"
	cases := []struct {
		name    string
		results []probe.Result
		want    Class
		slot    int
	}{
		{"nothing", nil, ClassUnresponsive, 0},
		{"timeouts only", []probe.Result{
			{Spec: probe.Spec{Dst: a(dst), Kind: probe.Ping}, Type: probe.NoResponse},
		}, ClassUnresponsive, 0},
		{"ping only", []probe.Result{
			{Spec: probe.Spec{Dst: a(dst), Kind: probe.Ping}, Type: probe.EchoReply},
		}, ClassPingResponsive, 0},
		{"rr reply without option", []probe.Result{
			{Spec: probe.Spec{Dst: a(dst), Kind: probe.PingRR}, Type: probe.EchoReply},
		}, ClassPingResponsive, 0},
		{"rr responsive, option full, unstamped", []probe.Result{
			rrReply(dst, 2, "9.0.0.1", "9.0.0.2"),
		}, ClassRRResponsive, 0},
		{"reachable at slot 9", []probe.Result{
			rrReply(dst, 9, "1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4",
				"1.0.0.5", "1.0.0.6", "1.0.0.7", "1.0.0.8", dst),
		}, ClassRRReachable, 9},
		{"reverse-measurable at slot 3", []probe.Result{
			rrReply(dst, 9, "1.0.0.1", "1.0.0.2", dst),
		}, ClassReverseMeasurable, 3},
		{"best slot across vantage points", []probe.Result{
			rrReply(dst, 9, "1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4",
				"1.0.0.5", "1.0.0.6", "1.0.0.7", "1.0.0.8", dst),
			rrReply(dst, 9, "2.0.0.1", dst),
		}, ClassReverseMeasurable, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := Classify(a(dst), tc.results, nil)
			if v.Class != tc.want || v.BestSlot != tc.slot {
				t.Errorf("got %v slot %d, want %v slot %d", v.Class, v.BestSlot, tc.want, tc.slot)
			}
		})
	}
}

func TestClassifyFalseNegativeSignal(t *testing.T) {
	dst := "100.1.0.1"
	v := Classify(a(dst), []probe.Result{rrReply(dst, 9, "9.0.0.1", "9.0.0.2")}, nil)
	if v.Class != ClassRRResponsive || !v.FalseNegativeSignal {
		t.Errorf("verdict = %+v, want RR-responsive with false-negative signal", v)
	}
}

func TestClassifyAliasUpgrade(t *testing.T) {
	dst, alias := "100.1.0.1", "100.1.0.129"
	aliasOf := func(x netip.Addr) netip.Addr {
		if x == a(alias) {
			return a(dst)
		}
		return x
	}
	results := []probe.Result{rrReply(dst, 9, "9.0.0.1", alias)}
	if v := Classify(a(dst), results, nil); v.Class != ClassRRResponsive {
		t.Fatalf("without aliases: %v", v.Class)
	}
	v := Classify(a(dst), results, aliasOf)
	if v.Class != ClassReverseMeasurable || v.BestSlot != 2 {
		t.Errorf("with aliases: %+v", v)
	}
}

func TestClassifyRRUDPUpgrade(t *testing.T) {
	dst := "100.1.0.1"
	results := []probe.Result{
		rrReply(dst, 9, "9.0.0.1", "9.0.0.2"), // responsive, never stamped
		{
			Spec:         probe.Spec{Dst: a(dst), Kind: probe.PingRRUDP},
			Type:         probe.PortUnreachable,
			HasRR:        true,
			QuotedRR:     true,
			RR:           []netip.Addr{a("9.0.0.1"), a("9.0.0.2")},
			RRTotalSlots: 9,
		},
	}
	v := Classify(a(dst), results, nil)
	if v.Class != ClassReverseMeasurable || v.BestSlot != 3 {
		t.Errorf("verdict = %+v, want reverse-measurable at slot 3", v)
	}
}

func TestClassifyIgnoresOtherDestinations(t *testing.T) {
	v := Classify(a("100.1.0.1"), []probe.Result{rrReply("100.2.0.1", 9, "9.0.0.1", "100.2.0.1")}, nil)
	if v.Class != ClassUnresponsive {
		t.Errorf("foreign results classified: %v", v.Class)
	}
}

func TestClassOrderingAndStrings(t *testing.T) {
	order := []Class{ClassUnresponsive, ClassPingResponsive, ClassRRResponsive, ClassRRReachable, ClassReverseMeasurable}
	for i := 1; i < len(order); i++ {
		if !order[i].AtLeast(order[i-1]) {
			t.Errorf("%v not at least %v", order[i], order[i-1])
		}
		if order[i-1].AtLeast(order[i]) {
			t.Errorf("%v wrongly at least %v", order[i-1], order[i])
		}
	}
	for _, c := range order {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}
