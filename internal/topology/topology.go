// Package topology generates synthetic Internet topologies — an AS-level
// relationship graph with Gao-Rexford policy routing, expanded into a
// router-level packet network on internal/netsim — and places vantage
// points, destinations, and the behaviour mix (options filtering,
// non-stamping routers, rate limiters, aliases) that the Record Route
// study measures.
package topology

import (
	"fmt"
	"net/netip"

	"recordroute/internal/netsim"
)

// VPKind distinguishes vantage-point platforms.
type VPKind int

const (
	// MLab vantage points sit in transit/colo networks.
	MLab VPKind = iota
	// PlanetLab vantage points sit in enterprise (university) networks.
	PlanetLab
	// Cloud vantage points sit at a cloud provider's border (§3.6).
	Cloud
)

// String names the platform.
func (k VPKind) String() string {
	switch k {
	case MLab:
		return "mlab"
	case PlanetLab:
		return "planetlab"
	case Cloud:
		return "cloud"
	default:
		return fmt.Sprintf("VPKind(%d)", int(k))
	}
}

// VP is a measurement vantage point.
type VP struct {
	Name  string
	Kind  VPKind
	Addr  netip.Addr
	ASIdx int
	Host  *netsim.Host
	// SourceRateLimited marks VPs behind a source-proximate options
	// policer (ground truth for validating the §4.1 experiment).
	SourceRateLimited bool
}

// Dest is one probed destination: the representative address of one
// advertised /24, mirroring the paper's one-per-prefix hitlist.
type Dest struct {
	Addr   netip.Addr
	Prefix netip.Prefix
	ASIdx  int
	Host   *netsim.Host

	// Ground-truth behaviour flags, for white-box validation only;
	// analyses must work from probe responses.
	GTPingResponsive bool
	GTRRDrop         bool // host-level options filtering
	GTNoHonorRR      bool
	GTAlias          netip.Addr // valid when the host stamps an alias
	GTUDPResponsive  bool
}

// Topology is a fully built simulated Internet.
type Topology struct {
	Cfg    Config
	Net    *netsim.Network
	Graph  *Graph
	Routes *Routes
	ASes   []*AS

	// Routers[a] lists AS a's routers; index 0 is the intra-AS hub.
	Routers [][]*netsim.Router
	// Dests are the probe targets in roster order.
	Dests []*Dest
	// VPs lists M-Lab then PlanetLab vantage points. CloudVPs lists the
	// per-cloud measurement hosts separately.
	VPs      []*VP
	CloudVPs []*VP
	// Faults summarizes the installed fault plan (zero when Cfg.Faults
	// is nil).
	Faults netsim.FaultSummary

	// plane is the frozen route plane (plane.go), shared by clones.
	// parent[a][j] is router j's parent in AS a's router tree, rooted at
	// router 0 (-1 for the root).
	plane  *plane
	parent [][]int
}

// RouterByAddr returns the router owning an infrastructure address, or
// nil. Tests use it to consult ground-truth router behaviour.
func (t *Topology) RouterByAddr(a netip.Addr) *netsim.Router {
	as, off := splitAddr(a, len(t.ASes))
	if as < 0 {
		return nil
	}
	if j := t.plane.ases[as].owner(off); j >= 0 {
		return t.Routers[as][j]
	}
	return nil
}

// ForwardStampPath returns the egress interface addresses a packet from
// the host at src would traverse to reach dst — the Record Route stamps
// a fully conformant path would record, excluding the destination's own
// stamp. It is ground truth for validating measurements; nil when either
// address is unknown or unrouted.
func (t *Topology) ForwardStampPath(src, dst netip.Addr) []netip.Addr {
	as, off := splitAddr(src, len(t.ASes))
	if as < 0 {
		return nil
	}
	h := t.plane.ases[as].host(off)
	if h == nil {
		return nil
	}
	cur := t.Routers[as][h.attach]
	var stamps []netip.Addr
	for hop := 0; hop < 64; hop++ {
		id := t.plane.Egress(cur.Index(), dst)
		if id < 0 {
			// Local delivery to this router itself.
			if t.plane.Owns(cur.Index(), dst) {
				return stamps
			}
			return nil
		}
		egress := t.Net.Iface(id)
		stamps = append(stamps, egress.Addr)
		next, isRouter := egress.Peer().Owner.(*netsim.Router)
		if !isRouter {
			return stamps
		}
		cur = next
	}
	return nil
}

// ASOf maps any address from the plan to its owning AS index, or -1
// (also for the zero Addr and non-IPv4 addresses).
func (t *Topology) ASOf(a netip.Addr) int {
	as, _ := splitAddr(a, len(t.ASes))
	return as
}

// ASNOf maps an address to its owning AS number, or -1.
func (t *Topology) ASNOf(a netip.Addr) int {
	idx := t.ASOf(a)
	if idx < 0 {
		return -1
	}
	return t.ASes[idx].ASN
}

// DestByAddr returns the destination record probed at a, or nil.
func (t *Topology) DestByAddr(a netip.Addr) *Dest {
	as, off := splitAddr(a, len(t.ASes))
	if as < 0 {
		return nil
	}
	if h := t.plane.ases[as].host(off); h != nil && h.dest >= 0 && t.Dests[h.dest].Addr == a {
		return t.Dests[h.dest]
	}
	return nil
}

// VPByName returns the named vantage point (including clouds), or nil.
func (t *Topology) VPByName(name string) *VP {
	for _, v := range t.VPs {
		if v.Name == name {
			return v
		}
	}
	for _, v := range t.CloudVPs {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// depthOf returns a router's depth in its AS tree (root = 0).
func (t *Topology) depthOf(a, rIdx int) int {
	d := 0
	for p := t.parent[a][rIdx]; p >= 0; p = t.parent[a][p] {
		d++
	}
	return d
}
