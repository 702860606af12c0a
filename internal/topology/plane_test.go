package topology

import (
	"math/rand/v2"
	"net/netip"
	"testing"

	"recordroute/internal/netsim"
)

// refPlane is an independent reference for the route plane, built from
// the simulated network itself (interfaces and their peers), the
// Routes.Path AS paths and the parent-pointer trees — nothing the plane
// precomputes.
type refPlane struct {
	t      *Topology
	pos    map[*netsim.Router][2]int
	gw     map[netip.Addr]*netsim.Iface  // host address → router-side iface
	owner  map[netip.Addr]*netsim.Router // infrastructure address → router
	border map[[2]int]*netsim.Iface      // (AS, neighbour AS) → border iface
	nextAS [][]int                       // nextAS[a][d]: a's next-hop AS toward d, -1
}

func newRefPlane(t *Topology) *refPlane {
	r := &refPlane{
		t:      t,
		pos:    make(map[*netsim.Router][2]int),
		gw:     make(map[netip.Addr]*netsim.Iface),
		owner:  make(map[netip.Addr]*netsim.Router),
		border: make(map[[2]int]*netsim.Iface),
	}
	for a, rs := range t.Routers {
		for j, rt := range rs {
			r.pos[rt] = [2]int{a, j}
		}
	}
	for _, rs := range t.Routers {
		for _, rt := range rs {
			for _, ifc := range rt.Interfaces() {
				r.owner[ifc.Addr] = rt
				switch peer := ifc.Peer().Owner.(type) {
				case *netsim.Host:
					for _, h := range peer.Addrs() {
						r.gw[h] = ifc
					}
				case *netsim.Router:
					if pa, ra := r.pos[peer][0], r.pos[rt][0]; pa != ra {
						r.border[[2]int{ra, pa}] = ifc
					}
				}
			}
		}
	}
	n := len(t.ASes)
	r.nextAS = make([][]int, n)
	for a := 0; a < n; a++ {
		r.nextAS[a] = make([]int, n)
		for d := 0; d < n; d++ {
			r.nextAS[a][d] = -1
			if p := t.Routes.Path(a, d); len(p) > 1 {
				r.nextAS[a][d] = p[1]
			}
		}
	}
	return r
}

// asOf decodes the address plan by hand: AS i owns the /16 at
// 100.0.0.0 + i·2¹⁶.
func (r *refPlane) asOf(a netip.Addr) int {
	if !a.Is4() {
		return -1
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if v < 100<<24 {
		return -1
	}
	if as := int((v - 100<<24) >> 16); as < len(r.t.ASes) {
		return as
	}
	return -1
}

// toward is the tree walk: router j's iface toward router tgt of AS a —
// down into the child whose subtree holds tgt, else up to j's parent.
func (r *refPlane) toward(a, j, tgt int) *netsim.Iface {
	parent := r.t.parent[a]
	via := parent[j]
	for c := tgt; c >= 0; c = parent[c] {
		if parent[c] == j {
			via = c
			break
		}
	}
	if via < 0 {
		return nil
	}
	next := r.t.Routers[a][via]
	for _, ifc := range r.t.Routers[a][j].Interfaces() {
		if ifc.Peer().Owner == next {
			return ifc
		}
	}
	return nil
}

// egress is the reference answer for router rt toward dst, as an iface
// id or -1.
func (r *refPlane) egress(rt *netsim.Router, dst netip.Addr) int32 {
	p := r.pos[rt]
	a, j := p[0], p[1]
	d := r.asOf(dst)
	if d < 0 {
		return -1
	}
	tgt := -1
	switch {
	case d != a:
		nh := r.nextAS[a][d]
		if nh < 0 {
			return -1
		}
		b := r.border[[2]int{a, nh}]
		if b == nil {
			return -1
		}
		if b.Owner == rt {
			return b.ID()
		}
		tgt = r.pos[b.Owner.(*netsim.Router)][1]
	case r.gw[dst] != nil:
		g := r.gw[dst]
		if g.Owner == rt {
			return g.ID()
		}
		tgt = r.pos[g.Owner.(*netsim.Router)][1]
	case r.owner[dst] != nil && r.pos[r.owner[dst]][0] == a:
		if r.owner[dst] == rt {
			return -1
		}
		tgt = r.pos[r.owner[dst]][1]
	default:
		return -1
	}
	if ifc := r.toward(a, j, tgt); ifc != nil {
		return ifc.ID()
	}
	return -1
}

// probeAddrs lists every assigned address of the world plus unassigned
// slots and out-of-plan addresses.
func probeAddrs(t *Topology) []netip.Addr {
	var out []netip.Addr
	for _, d := range t.Dests {
		out = append(out, d.Addr)
		b := d.Addr.As4()
		b[3] = aliasOctet
		out = append(out, netip.AddrFrom4(b)) // alias, or an unassigned slot
		b[3] = 77
		out = append(out, netip.AddrFrom4(b)) // never a host octet
	}
	for _, v := range append(append([]*VP(nil), t.VPs...), t.CloudVPs...) {
		out = append(out, v.Addr)
		b := v.Addr.As4()
		b[3] = 249
		out = append(out, netip.AddrFrom4(b)) // VP slot past the last VP
	}
	for _, rs := range t.Routers {
		for _, rt := range rs {
			for _, ifc := range rt.Interfaces() {
				out = append(out, ifc.Addr)
			}
		}
	}
	for i := range t.ASes {
		p := newASPlan(i)
		out = append(out,
			u32Addr(p.base+0xfb00),           // infrastructure offset never allocated
			u32Addr(p.base+0xffff),           // above the first infrastructure offset
			u32Addr(p.base+maxDestSlots<<8),  // dest slot past every AS's prefixes
			u32Addr(p.base+uint32(i%250)<<8), // low slot, host octet 0
		)
	}
	out = append(out,
		netip.MustParseAddr("99.255.255.255"),
		u32Addr(addrBase+uint32(len(t.ASes))<<16),
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("::ffff:100.0.0.1"),
		netip.MustParseAddr("2001:db8::1"),
		netip.Addr{},
	)
	return out
}

// checkPlane compares the plane against the reference for routers rts
// over every probe address, and checks ownership against each router's
// own interface list.
func checkPlane(t *testing.T, topo *Topology, rts []*netsim.Router) {
	t.Helper()
	ref := newRefPlane(topo)
	addrs := probeAddrs(topo)
	bad, routed := 0, 0
	for _, rt := range rts {
		own := make(map[netip.Addr]bool)
		for _, ifc := range rt.Interfaces() {
			own[ifc.Addr] = true
		}
		for _, dst := range addrs {
			got, want := topo.plane.Egress(rt.Index(), dst), ref.egress(rt, dst)
			if got != want {
				t.Errorf("%s → %v: Egress = %d, reference %d", rt.Name(), dst, got, want)
				bad++
			}
			if want >= 0 {
				routed++
			}
			if got := topo.plane.Owns(rt.Index(), dst); got != own[dst] {
				t.Errorf("%s owns %v: plane %v, interfaces %v", rt.Name(), dst, got, own[dst])
				bad++
			}
			if bad > 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
	if routed < len(rts)*len(addrs)/2 {
		t.Fatalf("reference routed only %d of %d lookups", routed, len(rts)*len(addrs))
	}
}

func TestPlaneMatchesReference(t *testing.T) {
	t.Run("small/every-router", func(t *testing.T) {
		cfg, err := ProfileConfig(Epoch2016, ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		topo := MustBuild(cfg)
		var all []*netsim.Router
		for _, rs := range topo.Routers {
			all = append(all, rs...)
		}
		checkPlane(t, topo, all)
	})
	t.Run("medium/sampled-routers", func(t *testing.T) {
		if testing.Short() {
			t.Skip("medium world in -short mode")
		}
		cfg, err := ProfileConfig(Epoch2016, ScaleMedium)
		if err != nil {
			t.Fatal(err)
		}
		topo := MustBuild(cfg)
		rng := rand.New(rand.NewPCG(13, 17))
		var sample []*netsim.Router
		for i := 0; i < 48; i++ {
			rs := topo.Routers[rng.IntN(len(topo.Routers))]
			sample = append(sample, rs[rng.IntN(len(rs))])
		}
		checkPlane(t, topo, sample)
	})
}

// The plan's address decoder treats the zero Addr and IPv6 addresses as
// outside the plan: no AS, no router, no destination, no route.
func TestNonIPv4AddressesAreOutsidePlan(t *testing.T) {
	topo := MustBuild(testConfig())
	r := topo.Routers[0][0]
	for _, a := range []netip.Addr{
		{},
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:100.0.0.1"),
	} {
		if got := topo.ASOf(a); got != -1 {
			t.Errorf("ASOf(%v) = %d, want -1", a, got)
		}
		if got := topo.ASNOf(a); got != -1 {
			t.Errorf("ASNOf(%v) = %d, want -1", a, got)
		}
		if got := topo.RouterByAddr(a); got != nil {
			t.Errorf("RouterByAddr(%v) = %s, want nil", a, got.Name())
		}
		if got := topo.DestByAddr(a); got != nil {
			t.Errorf("DestByAddr(%v) = %v, want nil", a, got.Addr)
		}
		if got := topo.ForwardStampPath(topo.VPs[0].Addr, a); got != nil {
			t.Errorf("ForwardStampPath(vp, %v) = %v, want nil", a, got)
		}
		if got := topo.plane.Egress(r.Index(), a); got != -1 {
			t.Errorf("Egress(%v) = %d, want -1", a, got)
		}
	}
}

// FuzzPlaneLookup feeds arbitrary address bytes and router indexes to
// the plane: it never panics, every egress id is -1 or an interface of
// that very router, and every owned address is one of its interfaces.
func FuzzPlaneLookup(f *testing.F) {
	topo := MustBuild(testConfig())
	rt := topo.Routers[1][0]
	d := topo.Dests[0]
	f.Add(d.Addr.AsSlice(), rt.Index())
	f.Add(rt.Interfaces()[0].Addr.AsSlice(), rt.Index())
	f.Add(topo.VPs[0].Addr.AsSlice(), d.Host.Uplink().Peer().Owner.(*netsim.Router).Index())
	f.Add([]byte{100, 0, 0xff, 0xfe}, 0)
	f.Add([]byte{}, -1)
	f.Add(netip.MustParseAddr("2001:db8::1").AsSlice(), 1<<30)
	f.Fuzz(func(t *testing.T, raw []byte, router int) {
		dst, _ := netip.AddrFromSlice(raw)
		var own []*netsim.Iface
		if id := topo.plane.Egress(router, dst); id != -1 {
			ifc := topo.Net.Iface(id)
			if ifc == nil {
				t.Fatalf("Egress(%d, %v) = %d: no such interface", router, dst, id)
			}
			if o, ok := ifc.Owner.(*netsim.Router); !ok || o.Index() != router {
				t.Fatalf("Egress(%d, %v) = %d, an interface of %s", router, dst, id, ifc.Owner.Name())
			}
			own = ifc.Owner.(*netsim.Router).Interfaces()
		}
		if !topo.plane.Owns(router, dst) {
			return
		}
		if own == nil {
			for _, rs := range topo.Routers {
				for _, r := range rs {
					if r.Index() == router {
						own = r.Interfaces()
					}
				}
			}
		}
		for _, ifc := range own {
			if ifc.Addr == dst {
				return
			}
		}
		t.Fatalf("Owns(%d, %v) but no interface of that router has the address", router, dst)
	})
}

// planeSink keeps BenchmarkPlaneLookup's lookups from being optimized
// away.
var planeSink int32

// BenchmarkPlaneLookup measures one forwarding hop's route-plane work —
// an ownership check and an egress lookup — over a built medium world,
// cycling through seeded (router, destination) pairs.
func BenchmarkPlaneLookup(b *testing.B) {
	topo := MustBuild(DefaultConfig(Epoch2016))
	rng := rand.New(rand.NewPCG(1, 2))
	type pair struct {
		router int
		dst    netip.Addr
	}
	pairs := make([]pair, 4096)
	for i := range pairs {
		rs := topo.Routers[rng.IntN(len(topo.Routers))]
		pairs[i] = pair{rs[rng.IntN(len(rs))].Index(), topo.Dests[rng.IntN(len(topo.Dests))].Addr}
	}
	var p netsim.RoutePlane = topo.plane
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pairs[i&(len(pairs)-1)]
		if p.Owns(q.router, q.dst) {
			b.Fatal("a router owns a destination address")
		}
		planeSink += p.Egress(q.router, q.dst)
	}
}
