package topology

import (
	"cmp"
	"net/netip"
	"slices"
)

// plane is a built topology's frozen route plane: every hop's egress
// interface and every address-ownership question, answered from flat
// slabs laid out along the address plan (addr.go) rather than from
// address-keyed maps. It implements netsim.RoutePlane; replica clones
// share it by pointer and resolve its interface ids against their own
// registries.
type plane struct {
	next  [][]int32   // Routes.Next: next[d][a] is a's next-hop AS toward d
	where []routerPos // node registration index → router position
	ases  []asSlab
}

// routerPos locates a router: AS index and index within the AS. Hosts
// (and nodes the plane does not know) have as = -1.
type routerPos struct{ as, j int32 }

// asSlab is one AS's share of the plane.
type asSlab struct {
	n     int32   // routers in the AS, dedicated VP gateways included
	intra []int32 // n×n: intra[j*n+t] is the iface id from router j toward router t
	// infra[i] is the router owning the infrastructure address at
	// offset 0xfffe-i of the AS's /16 (NextInfra counts down).
	infra []int32
	dests []hostSlot // by destination /24 slot
	vps   []hostSlot // by VP host slot
	// exits lists the AS's borders by ascending neighbour AS; nbrs
	// repeats their neighbour indexes as the binary-search key.
	exits []exit
	nbrs  []int32

	// up[j] is router j's iface toward its tree parent, down[j] the
	// parent's iface toward j; build-time only, dropped once intra is
	// filled.
	up, down []int32
}

// hostSlot is one host attachment: the destination or VP living in a
// /24 slot (or VP slot) of the plan.
type hostSlot struct {
	gw     int32 // router-side iface toward the host
	attach int32 // attach router's index within the AS
	dest   int32 // index in Topology.Dests; -1 for a VP
	octet  uint8 // last octet of the primary address
	alias  bool  // the slot's .129 alias lives on the same host
}

// exit is an AS's border toward neighbour AS nbr: the border router's
// index within the AS and its iface on the inter-AS link.
type exit struct{ nbr, router, iface int32 }

func newPlane(numASes int, routes *Routes) *plane {
	return &plane{next: routes.Next, ases: make([]asSlab, numASes)}
}

// splitAddr is the plan's one address decoder: the owning AS index and
// the offset within its /16, or as = -1 for anything outside the plan —
// including the zero Addr and every non-IPv4 address.
func splitAddr(a netip.Addr, numASes int) (as int, off uint32) {
	if !a.Is4() {
		return -1, 0
	}
	v := addrU32(a)
	if v < addrBase || int((v-addrBase)>>16) >= numASes {
		return -1, 0
	}
	return int((v - addrBase) >> 16), v & 0xffff
}

// host returns the attachment of the host address at offset off, or nil
// when no host lives there.
func (s *asSlab) host(off uint32) *hostSlot {
	third, low := off>>8, uint8(off)
	switch {
	case third < uint32(len(s.dests)):
		if h := &s.dests[third]; low == h.octet || (h.alias && low == aliasOctet) {
			return h
		}
	case third == vpSlot:
		if k := int(low) - 1; k >= 0 && k < len(s.vps) {
			return &s.vps[k]
		}
	}
	return nil
}

// owner returns the index of the router owning the infrastructure
// address at offset off, or -1.
func (s *asSlab) owner(off uint32) int32 {
	if i := infraTop - int(off); i >= 0 && i < len(s.infra) {
		return s.infra[i]
	}
	return -1
}

// exitToward returns the AS's border toward neighbour AS nbr.
func (s *asSlab) exitToward(nbr int32) (exit, bool) {
	i, ok := slices.BinarySearch(s.nbrs, nbr)
	if !ok {
		return exit{}, false
	}
	return s.exits[i], true
}

// pos returns the position of the router registered at index router,
// with as = -1 for hosts and out-of-range indexes.
func (p *plane) pos(router int) routerPos {
	if router < 0 || router >= len(p.where) {
		return routerPos{as: -1}
	}
	return p.where[router]
}

// Egress implements netsim.RoutePlane: the iface id toward dst from the
// router registered at index router, or -1 (no route, or dst is the
// router's own address).
func (p *plane) Egress(router int, dst netip.Addr) int32 {
	at := p.pos(router)
	if at.as < 0 {
		return -1
	}
	d, off := splitAddr(dst, len(p.ases))
	if d < 0 {
		return -1
	}
	s := &p.ases[at.as]
	var tgt int32
	if d != int(at.as) {
		nh := p.next[d][at.as]
		if nh < 0 {
			return -1
		}
		e, ok := s.exitToward(nh)
		if !ok {
			return -1
		}
		if e.router == at.j {
			return e.iface
		}
		tgt = e.router
	} else if h := s.host(off); h != nil {
		if h.attach == at.j {
			return h.gw
		}
		tgt = h.attach
	} else if tgt = s.owner(off); tgt < 0 || tgt == at.j {
		return -1
	}
	return s.intra[at.j*s.n+tgt]
}

// Owns implements netsim.RoutePlane: whether dst is an infrastructure
// address of the router registered at index router.
func (p *plane) Owns(router int, dst netip.Addr) bool {
	at := p.pos(router)
	if at.as < 0 {
		return false
	}
	d, off := splitAddr(dst, len(p.ases))
	return d == int(at.as) && p.ases[d].owner(off) == at.j
}

// setOwner records router j of AS as as the owner of infrastructure
// address a.
func (p *plane) setOwner(as int, a netip.Addr, j int) {
	s := &p.ases[as]
	i := infraTop - int(addrU32(a)&0xffff)
	for len(s.infra) <= i {
		s.infra = append(s.infra, -1)
	}
	s.infra[i] = int32(j)
}

// setParent records the tree link between router j of AS as and its
// parent: up is j's iface, down the parent's.
func (p *plane) setParent(as, j int, up, down int32) {
	s := &p.ases[as]
	for len(s.up) <= j {
		s.up = append(s.up, -1)
		s.down = append(s.down, -1)
	}
	s.up[j], s.down[j] = up, down
}

// addExit records router j's iface as AS as's border toward nbr.
func (p *plane) addExit(as, nbr, j int, iface int32) {
	s := &p.ases[as]
	s.exits = append(s.exits, exit{nbr: int32(nbr), router: int32(j), iface: iface})
}

// freeze completes the plane once every router, link and host exists:
// it sorts the border lists, locates every router by registration
// index, and expands each AS tree into its next-hop matrix.
func (p *plane) freeze(t *Topology) {
	p.where = make([]routerPos, t.Net.NumNodes())
	for i := range p.where {
		p.where[i].as = -1
	}
	for a, rs := range t.Routers {
		for j, r := range rs {
			p.where[r.Index()] = routerPos{as: int32(a), j: int32(j)}
		}
		s := &p.ases[a]
		slices.SortFunc(s.exits, func(x, y exit) int { return cmp.Compare(x.nbr, y.nbr) })
		s.nbrs = make([]int32, len(s.exits))
		for i, e := range s.exits {
			s.nbrs[i] = e.nbr
		}

		n := len(rs)
		s.n = int32(n)
		s.intra = make([]int32, n*n)
		for j := 0; j < n; j++ {
			for tgt := 0; tgt < n; tgt++ {
				s.intra[j*n+tgt] = s.treeStep(t.parent[a], j, tgt)
			}
		}
		s.up, s.down = nil, nil
	}
}

// treeStep is the next iface from router j toward router tgt in an AS
// tree rooted at router 0: if tgt is in j's subtree the packet descends
// into the child on tgt's branch, otherwise it climbs to j's parent.
func (s *asSlab) treeStep(parent []int, j, tgt int) int32 {
	if j == tgt {
		return -1
	}
	for c := tgt; c >= 0; c = parent[c] {
		if parent[c] == j {
			return s.down[c]
		}
	}
	return s.up[j]
}
