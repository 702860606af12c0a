package topology

import (
	"recordroute/internal/netsim"
)

// Snapshot is a frozen, built topology that stamps out replicas without
// regenerating anything. The expensive route plane — AS graph, all-pairs
// policy routes, FIB contents, addressing, link delays, the route-plane
// slabs — is computed once by Build and shared read-only by
// every replica; each Clone gets only a fresh mutable overlay (engine,
// counters, policers, IP-ID state) via netsim.Network.Clone.
type Snapshot struct {
	src *Topology
}

// SnapshotOf freezes a built topology for replication. The source keeps
// working normally afterwards (mutations copy-on-write); once this
// returns, concurrent Clone calls are safe.
func SnapshotOf(t *Topology) *Snapshot {
	t.Net.Freeze()
	return &Snapshot{src: t}
}

// Source returns the topology the snapshot was taken from.
func (s *Snapshot) Source() *Topology { return s.src }

// Clone returns a replica topology: a cloned network plus remapped
// router/VP/destination handles, sharing everything else with the
// source. A replica behaves exactly like an independent Build of the
// same Config — same routes, same behaviour draws, same fault plan —
// with its clock at zero.
func (s *Snapshot) Clone() *Topology {
	src := s.src
	net := src.Net.Clone()
	c := &Topology{
		Cfg:    src.Cfg,
		Net:    net,
		Graph:  src.Graph,
		Routes: src.Routes,
		ASes:   src.ASes,
		Faults: src.Faults,

		// The route plane holds only indexes — router registration
		// indexes and interface ids — which mean the same thing in every
		// replica, so the clone shares it by pointer.
		plane:  src.plane,
		parent: src.parent,
	}

	c.Routers = make([][]*netsim.Router, len(src.Routers))
	for i, rs := range src.Routers {
		crs := make([]*netsim.Router, len(rs))
		for j, r := range rs {
			crs[j] = net.Counterpart(r).(*netsim.Router)
		}
		c.Routers[i] = crs
	}

	// Only the Dest records are per-replica, allocated as one block.
	c.Dests = make([]*Dest, len(src.Dests))
	block := make([]Dest, len(src.Dests))
	for i, d := range src.Dests {
		block[i] = *d
		block[i].Host = net.Counterpart(d.Host).(*netsim.Host)
		c.Dests[i] = &block[i]
	}

	cloneVPs := func(vps []*VP) []*VP {
		out := make([]*VP, len(vps))
		for i, v := range vps {
			cv := *v
			cv.Host = net.Counterpart(v.Host).(*netsim.Host)
			out[i] = &cv
		}
		return out
	}
	c.VPs = cloneVPs(src.VPs)
	c.CloudVPs = cloneVPs(src.CloudVPs)
	return c
}
