// Package analysis turns raw probe results into the paper's analytic
// artifacts: destination classifications (ping-responsive,
// RR-responsive, RR-reachable), hop-distance distributions, greedy
// vantage-point selection, AS-path stamping audits, and rendered tables.
// Classify is the single statement of the §3.1 per-destination rules
// the aggregate classifications here apply.
//
// The package deliberately works from probe results and small callback
// interfaces (address→ASN, address→type) rather than from topology
// internals, so the same code would analyze real-Internet measurements.
package analysis

import (
	"fmt"
	"net/netip"
	"sort"

	"recordroute/internal/probe"
)

// PingResponsive classifies destinations from repeated plain pings: a
// destination is responsive if at least one ping was answered with an
// echo reply (§3.1).
func PingResponsive(dests []netip.Addr, grouped [][]probe.Result) map[netip.Addr]bool {
	out := make(map[netip.Addr]bool, len(dests))
	for i, d := range dests {
		ok := false
		for _, r := range grouped[i] {
			if r.Type == probe.EchoReply {
				ok = true
				break
			}
		}
		out[d] = ok
	}
	return out
}

// RRDestStat aggregates one destination's ping-RR outcomes across all
// vantage points.
type RRDestStat struct {
	Addr netip.Addr
	// Responses counts VPs whose ping-RR was answered with an echo
	// reply that carried the Record Route option (the RR-responsive
	// test, §3.1).
	Responses int
	// RepliesWithoutRR counts echo replies that dropped the option.
	RepliesWithoutRR int
	// MinDestSlot is the smallest (1-based) RR slot in which the
	// destination's own address appears across VPs; 0 if it never does.
	MinDestSlot int
	// ClosestVP is the VP achieving MinDestSlot.
	ClosestVP string
	// SlotsByVP records, per responding VP, the slot where the
	// destination appeared (0 when absent from that VP's response).
	SlotsByVP map[string]int
	// SawFreeSlots notes a VP response whose option still had free
	// slots yet lacked the destination address — the §3.3 false-negative
	// signature worth re-testing with ping-RRudp.
	SawFreeSlots bool
}

// RRResponsive reports the §3.1 RR-responsive classification.
func (s *RRDestStat) RRResponsive() bool { return s.Responses > 0 }

// RRReachable reports the §3.1 RR-reachable classification: the
// destination address appeared within the nine slots for some VP.
func (s *RRDestStat) RRReachable() bool { return s.MinDestSlot > 0 }

// WithinHops reports reachability within n slots (n=8 is the reverse-
// path criterion, §3.3).
func (s *RRDestStat) WithinHops(n int) bool {
	return s.MinDestSlot > 0 && s.MinDestSlot <= n
}

// AggregateRR folds per-VP ping-RR results into per-destination stats.
// Results lacking an echo reply or an RR option do not count as
// RR-responses (a reply that strips the option is tallied separately).
func AggregateRR(perVP map[string][]probe.Result) map[netip.Addr]*RRDestStat {
	stats := make(map[netip.Addr]*RRDestStat)
	names := make([]string, 0, len(perVP))
	for name := range perVP {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic iteration
	for _, vp := range names {
		for _, r := range perVP[vp] {
			if r.Type != probe.EchoReply {
				continue
			}
			st := stats[r.Dst]
			if st == nil {
				st = &RRDestStat{Addr: r.Dst, SlotsByVP: make(map[string]int)}
				stats[r.Dst] = st
			}
			if !r.HasRR {
				st.RepliesWithoutRR++
				continue
			}
			st.Responses++
			slot := destSlot(r, r.Dst, nil)
			st.SlotsByVP[vp] = slot
			if slot == 0 && r.RRSlotsRemaining() > 0 {
				st.SawFreeSlots = true
			}
			if slot > 0 && (st.MinDestSlot == 0 || slot < st.MinDestSlot) {
				st.MinDestSlot = slot
				st.ClosestVP = vp
			}
		}
	}
	return stats
}

// destSlot returns the 1-based RR slot where canon was recorded, or 0.
// aliasOf maps each recorded hop to its alias-set representative before
// the comparison; nil compares hops as they are.
func destSlot(r probe.Result, canon netip.Addr, aliasOf func(netip.Addr) netip.Addr) int {
	for i, h := range r.RR {
		if aliasOf != nil {
			h = aliasOf(h)
		}
		if h == canon {
			return i + 1
		}
	}
	return 0
}

// ApplyAliases upgrades reachability using alias sets: if a recorded
// address is an alias of the probed destination, the destination was
// reached even though its probed address never appeared (§3.3's first
// reclassification). aliasOf maps an address to its canonical alias-set
// representative (identity when unknown). It returns how many
// destinations were reclassified.
func ApplyAliases(stats map[netip.Addr]*RRDestStat, perVP map[string][]probe.Result, aliasOf func(netip.Addr) netip.Addr) int {
	names := make([]string, 0, len(perVP))
	for name := range perVP {
		names = append(names, name)
	}
	sort.Strings(names)
	reclassified := make(map[netip.Addr]bool)
	for _, vp := range names {
		for _, r := range perVP[vp] {
			if r.Type != probe.EchoReply || !r.HasRR {
				continue
			}
			st := stats[r.Dst]
			if st == nil || st.RRReachable() {
				continue
			}
			canon := aliasOf(r.Dst)
			for i, h := range r.RR {
				if h != r.Dst && aliasOf(h) == canon {
					st.MinDestSlot = i + 1
					st.ClosestVP = vp
					reclassified[r.Dst] = true
					break
				}
			}
		}
	}
	return len(reclassified)
}

// ApplyRRUDP upgrades reachability using ping-RRudp evidence: a
// port-unreachable whose quoted option still had free slots proves the
// probe arrived at the destination within the slot limit, even though
// the destination never stamps (§3.3's second reclassification). The
// destination is credited at slot len(RR)+1 — where its stamp would
// have landed. Returns the number of reclassified destinations.
func ApplyRRUDP(stats map[netip.Addr]*RRDestStat, perVP map[string][]probe.Result) int {
	names := make([]string, 0, len(perVP))
	for name := range perVP {
		names = append(names, name)
	}
	sort.Strings(names)
	reclassified := make(map[netip.Addr]bool)
	for _, vp := range names {
		for _, r := range perVP[vp] {
			if r.Type != probe.PortUnreachable || !r.HasRR {
				continue
			}
			if r.RRSlotsRemaining() <= 0 {
				continue
			}
			st := stats[r.Dst]
			if st == nil || st.RRReachable() {
				continue
			}
			slot := len(r.RR) + 1
			if st.MinDestSlot == 0 || slot < st.MinDestSlot {
				st.MinDestSlot = slot
				st.ClosestVP = vp
			}
			reclassified[r.Dst] = true
		}
	}
	return len(reclassified)
}

// The Record Route option's structural limits (RFC 791), which the
// paper's methodology revolves around.
const (
	// NineHopLimit is the option's slot capacity: a destination farther
	// than nine stamping hops from every vantage point cannot appear in
	// any RR header.
	NineHopLimit = 9
	// ReversePathLimit is the slot budget left for the destination's
	// own stamp while still recording at least one reverse hop — the
	// §3.3 criterion for measuring reverse paths (Reverse Traceroute).
	ReversePathLimit = 8
)

// Class is a destination's §3.1 classification.
type Class int

const (
	// ClassUnresponsive answered nothing.
	ClassUnresponsive Class = iota
	// ClassPingResponsive answered a plain ping but no ping-RR.
	ClassPingResponsive
	// ClassRRResponsive answered a ping-RR with the option copied into the
	// reply, but never appeared within the nine slots.
	ClassRRResponsive
	// ClassRRReachable appeared in an RR header within nine slots of some
	// vantage point.
	ClassRRReachable
	// ClassReverseMeasurable appeared within eight slots: its reverse path
	// toward a vantage point is measurable.
	ClassReverseMeasurable
)

// String names the classification.
func (c Class) String() string {
	switch c {
	case ClassUnresponsive:
		return "unresponsive"
	case ClassPingResponsive:
		return "ping-responsive"
	case ClassRRResponsive:
		return "rr-responsive"
	case ClassRRReachable:
		return "rr-reachable"
	case ClassReverseMeasurable:
		return "reverse-measurable"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// AtLeast reports whether c satisfies the threshold class q (the
// classes are ordered: each level implies the previous ones, except
// that ping- and RR-responsiveness are measured by different probes;
// per §3.2, 75% of ping-responsive destinations are also RR-responsive).
func (c Class) AtLeast(q Class) bool { return c >= q }

// Verdict is a destination's full classification with its evidence.
type Verdict struct {
	Dst   netip.Addr
	Class Class
	// BestSlot is the smallest 1-based RR slot the destination (or a
	// known alias) occupied across all results; 0 when never recorded.
	BestSlot int
	// FalseNegativeSignal marks responses whose option had free slots
	// yet no destination stamp — the §3.3 signature worth re-testing
	// with alias resolution or ping-RRudp.
	FalseNegativeSignal bool
}

// Classify applies the §3.1 rules to one destination's probe results
// (any mix of plain pings, ping-RRs, and ping-RRudps from any number of
// vantage points). aliasOf maps addresses to their alias-set
// representative; nil means no alias knowledge.
func Classify(dst netip.Addr, results []probe.Result, aliasOf func(netip.Addr) netip.Addr) Verdict {
	if aliasOf == nil {
		aliasOf = func(a netip.Addr) netip.Addr { return a }
	}
	v := Verdict{Dst: dst}
	canon := aliasOf(dst)

	pingResp, rrResp := false, false
	for _, r := range results {
		if aliasOf(r.Dst) != canon {
			continue
		}
		switch r.Kind {
		case probe.Ping, probe.TTLPing:
			if r.Type == probe.EchoReply {
				pingResp = true
			}
		case probe.PingRR, probe.TTLPingRR:
			if r.Type != probe.EchoReply {
				continue
			}
			// Replying to a ping implies ping-responsiveness even when
			// the probe carried an option.
			pingResp = true
			if !r.HasRR {
				continue // option stripped from the reply: not RR-responsive
			}
			rrResp = true
			slot := destSlot(r, canon, aliasOf)
			if slot == 0 && r.RRSlotsRemaining() > 0 {
				v.FalseNegativeSignal = true
			}
			if slot > 0 && (v.BestSlot == 0 || slot < v.BestSlot) {
				v.BestSlot = slot
			}
		case probe.PingRRUDP:
			// A port-unreachable whose quoted option still had room
			// proves arrival within the slot limit (§3.3): credit the
			// slot the destination's stamp would have taken.
			if r.Type != probe.PortUnreachable || !r.HasRR || r.RRSlotsRemaining() <= 0 {
				continue
			}
			if slot := len(r.RR) + 1; v.BestSlot == 0 || slot < v.BestSlot {
				v.BestSlot = slot
			}
		}
	}

	switch {
	case v.BestSlot > 0 && v.BestSlot <= ReversePathLimit:
		v.Class = ClassReverseMeasurable
	case v.BestSlot > 0 && v.BestSlot <= NineHopLimit:
		v.Class = ClassRRReachable
	case rrResp:
		v.Class = ClassRRResponsive
	case pingResp:
		v.Class = ClassPingResponsive
	default:
		v.Class = ClassUnresponsive
	}
	return v
}
