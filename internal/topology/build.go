package topology

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"recordroute/internal/netsim"
)

// builds counts completed topology Builds process-wide. The campaign
// service's frozen-plane cache asserts its hit path against this: two
// concurrent identical-key jobs must move it by exactly one.
var builds atomic.Uint64

// Builds returns how many topology Builds have completed in this
// process.
func Builds() uint64 { return builds.Load() }

// Build generates the AS graph, computes policy routes, and expands
// everything into a packet-level netsim network with vantage points,
// destinations, and behaviour assignments.
func Build(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	ases, graph := generateASLevel(cfg, rng)
	assignPolicies(cfg, ases, rng)
	routes := ComputeRoutes(graph)

	t := &Topology{
		Cfg:    cfg,
		Net:    netsim.New(),
		Graph:  graph,
		Routes: routes,
		ASes:   ases,
		plane:  newPlane(len(ases), routes),
	}

	plans := make([]*asPlan, len(ases))
	for i := range ases {
		plans[i] = newASPlan(i)
	}

	t.buildRouters(rng)
	t.buildIntraLinks(plans, rng)
	t.buildInterLinks(plans, rng)
	t.buildDests(plans, rng)
	t.buildVPs(plans, rng)
	t.plane.freeze(t)
	t.Net.SetRoutePlane(t.plane)
	t.installFaults()
	builds.Add(1)
	return t, nil
}

// installFaults compiles Cfg.Faults into per-interface and per-router
// fault state. Registration follows build order — routers by (AS,
// router) index with their interfaces in attachment order, then
// destination prefixes in hitlist order — so every replica built from
// the same Config draws the same afflicted subsets and window phases.
func (t *Topology) installFaults() {
	if t.Cfg.Faults == nil {
		return
	}
	plan := netsim.NewFaultPlan(*t.Cfg.Faults)
	for i := range t.Routers {
		for _, r := range t.Routers[i] {
			plan.AddRouter(r)
			for _, ifc := range r.Interfaces() {
				plan.AddLink(ifc)
			}
		}
	}
	for _, d := range t.Dests {
		plan.AddWithdrawal(d.Host.Uplink().Peer().Owner.(*netsim.Router), d.Prefix)
	}
	t.Faults = plan.Install()
}

// MustBuild is Build for tests and examples with known-good configs.
func MustBuild(cfg Config) *Topology {
	t, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// routerBehavior derives a router's behaviour from its AS policy flags
// and the per-router rates.
func (t *Topology) routerBehavior(a *AS, rng *rand.Rand) netsim.RouterBehavior {
	b := netsim.RouterBehavior{}
	if a.FilterOptions {
		b.DropOptions = true
	}
	if a.NoStamp {
		b.NoStampRR = true
	} else if a.PartialNoStamp && rng.Float64() < 0.5 {
		b.NoStampRR = true
	}
	if rng.Float64() < t.Cfg.RouterAnonymousRate {
		b.NoTTLDecrement = true
	}
	// Options policers live at stub-AS edges (destination-proximate).
	isStub := a.Role == RoleEnterprise || a.Role == RoleUnknownStub || a.Role == RoleContent
	if isStub && rng.Float64() < t.Cfg.EdgeRateLimitRate {
		b.OptionsRateLimit = t.Cfg.EdgeRateLimitPPS
		b.OptionsRateBurst = t.Cfg.EdgeRateLimitPPS / 2
	}
	return b
}

func (t *Topology) buildRouters(rng *rand.Rand) {
	t.Routers = make([][]*netsim.Router, len(t.ASes))
	for i, a := range t.ASes {
		rs := make([]*netsim.Router, a.NumRouters)
		// Connected /32 routes per router: tree links plus this AS's share
		// of destination attachments; border links add a few more.
		fibHint := 4
		if a.NumRouters > 0 {
			fibHint += a.NumPrefixes / a.NumRouters
		}
		for j := range rs {
			rs[j] = t.Net.AddRouter(fmt.Sprintf("as%d-r%d", i, j), t.routerBehavior(a, rng))
			rs[j].FIB().Grow(fibHint)
		}
		t.Routers[i] = rs
	}
}

// chainBias returns how strongly an AS role's router tree grows as a
// chain (1 = pure chain, 0 = star): access and enterprise networks have
// deep aggregation hierarchies; the core is flat and bushy.
func chainBias(r Role) float64 {
	switch r {
	case RoleAccess:
		return 0.85
	case RoleEnterprise, RoleUnknownStub:
		return 0.7
	case RoleContent:
		return 0.5
	default: // tier-1, transit, cloud backbones
		return 0.4
	}
}

// buildIntraLinks wires each AS's routers into a random tree rooted at
// router 0, chain-biased per role, so destinations sit at varying
// depths — the spread Figure 1's hop CDF measures.
func (t *Topology) buildIntraLinks(plans []*asPlan, rng *rand.Rand) {
	t.parent = make([][]int, len(t.ASes))
	for i, a := range t.ASes {
		n := len(t.Routers[i])
		t.parent[i] = make([]int, n)
		t.parent[i][0] = -1
		bias := chainBias(a.Role) + t.Cfg.ChainBoost
		if bias > 0.95 {
			bias = 0.95
		}
		for j := 1; j < n; j++ {
			p := j - 1
			if rng.Float64() >= bias {
				p = rng.IntN(j)
			}
			t.attachChild(plans, rng, i, j, p)
		}
	}
}

// attachChild links router j of AS i under parent p and registers the
// interfaces. It also serves routers appended after the initial build
// (dedicated VP gateways), which must extend parent before calling.
func (t *Topology) attachChild(plans []*asPlan, rng *rand.Rand, i, j, p int) {
	parentAddr, childAddr := plans[i].NextInfra(), plans[i].NextInfra()
	delay := time.Duration(1+rng.IntN(3)) * time.Millisecond
	pi, ci := t.Net.Connect(t.Routers[i][p], t.Routers[i][j], parentAddr, childAddr, delay)
	t.parent[i][j] = p
	t.plane.setParent(i, j, ci.ID(), pi.ID())
	t.plane.setOwner(i, parentAddr, p)
	t.plane.setOwner(i, childAddr, j)
}

// borderCandidates lists an AS's routers eligible to host inter-AS
// links: backbone routers near the root — core networks spread borders
// a level deeper (lengthening transit crossings), edge networks keep
// them shallow so their aggregation tails stay destination-only.
func (t *Topology) borderCandidates(i int) []int {
	maxDepth := 1
	if r := t.ASes[i].Role; r == RoleTier1 || r == RoleTransit {
		maxDepth = 2
	}
	var out []int
	for j := range t.Routers[i] {
		if t.depthOf(i, j) <= maxDepth {
			out = append(out, j)
		}
	}
	return out
}

// deepBorderCandidates lists routers eligible for cloud private
// interconnects: anywhere in the upper two-thirds of the AS tree.
func (t *Topology) deepBorderCandidates(i int) []int {
	maxDepth := 0
	for j := range t.Routers[i] {
		if d := t.depthOf(i, j); d > maxDepth {
			maxDepth = d
		}
	}
	limit := 2 * maxDepth / 3
	if limit < 1 {
		limit = 1
	}
	var out []int
	for j := range t.Routers[i] {
		if t.depthOf(i, j) <= limit {
			out = append(out, j)
		}
	}
	return out
}

// buildInterLinks realizes each AS adjacency as one router-level link
// between randomly chosen border routers.
func (t *Topology) buildInterLinks(plans []*asPlan, rng *rand.Rand) {
	borders := make([][]int, len(t.ASes))
	deepBorders := make([][]int, len(t.ASes))
	for i := range t.ASes {
		borders[i] = t.borderCandidates(i)
		deepBorders[i] = t.deepBorderCandidates(i)
	}
	// pickBorder chooses AS i's router for its link to AS j. Cloud
	// private interconnects land deep inside access networks (metro
	// POPs close to the aggregation), shortening cloud—user paths —
	// the §3.6 flattening effect.
	pickBorder := func(i, j int) int {
		cands := borders[i]
		if t.ASes[i].Role == RoleAccess && t.ASes[j].Role == RoleCloud {
			cands = deepBorders[i]
		}
		return cands[rng.IntN(len(cands))]
	}
	for a := 0; a < t.Graph.N(); a++ {
		for _, nb := range t.Graph.Neighbors(a) {
			b := nb.To
			if b < a {
				continue // realize each adjacency once
			}
			ra := pickBorder(a, b)
			rb := pickBorder(b, a)
			addrA, addrB := plans[a].NextInfra(), plans[b].NextInfra()
			delay := time.Duration(3+rng.IntN(13)) * time.Millisecond
			ia, ib := t.Net.Connect(t.Routers[a][ra], t.Routers[b][rb], addrA, addrB, delay)
			t.plane.addExit(a, b, ra, ia.ID())
			t.plane.addExit(b, a, rb, ib.ID())
			t.plane.setOwner(a, addrA, ra)
			t.plane.setOwner(b, addrB, rb)
		}
	}
}

// buildDests creates one destination host per advertised prefix, with
// behaviour drawn from the calibrated rates.
func (t *Topology) buildDests(plans []*asPlan, rng *rand.Rand) {
	cfg := t.Cfg
	for i, a := range t.ASes {
		typ := a.Type()
		slots := make([]hostSlot, a.NumPrefixes)
		t.plane.ases[i].dests = slots
		for j := 0; j < a.NumPrefixes; j++ {
			hb := netsim.HostBehavior{
				PingResponsive: rng.Float64() < cfg.PingResponsiveRate[typ],
				RRResponsive:   rng.Float64() >= cfg.HostRRDropRate[typ],
				CopyRROnReply:  true,
				HonorRR:        true,
				UDPResponsive:  rng.Float64() < cfg.HostUDPResponsiveRate,
			}
			d := &Dest{
				Addr:   plans[i].DestAddr(j, HostOctets[rng.IntN(len(HostOctets))]),
				Prefix: plans[i].DestPrefix(j),
				ASIdx:  i,
			}
			switch {
			case rng.Float64() < cfg.HostNoHonorRRRate:
				hb.HonorRR = false
				d.GTNoHonorRR = true
			case rng.Float64() < cfg.HostAliasStampRate:
				d.GTAlias = plans[i].AliasAddr(j)
				hb.StampAddr = d.GTAlias
			}
			d.GTPingResponsive = hb.PingResponsive
			d.GTRRDrop = !hb.RRResponsive
			d.GTUDPResponsive = hb.UDPResponsive

			host := t.Net.AddHost(fmt.Sprintf("as%d-d%d", i, j), d.Addr, hb)
			if d.GTAlias.IsValid() {
				host.AddAlias(d.GTAlias)
			}
			attach := rng.IntN(len(t.Routers[i]))
			gwAddr := plans[i].NextInfra()
			delay := time.Duration(1+rng.IntN(5)) * time.Millisecond
			gwIf, _ := t.Net.Connect(t.Routers[i][attach], host, gwAddr, d.Addr, delay)
			t.plane.setOwner(i, gwAddr, attach)
			slots[j] = hostSlot{
				gw:     gwIf.ID(),
				attach: int32(attach),
				dest:   int32(len(t.Dests)),
				octet:  d.Addr.As4()[3],
				alias:  d.GTAlias.IsValid(),
			}
			d.Host = host
			t.Dests = append(t.Dests, d)
		}
	}
}

// buildVPs places M-Lab VPs in transit ASes (hub-attached, colo-like),
// PlanetLab VPs in enterprise ASes, and one measurement host at each
// cloud's border. Rate-limited VPs get a dedicated, policed gateway
// router so the policer affects only their own traffic.
func (t *Topology) buildVPs(plans []*asPlan, rng *rand.Rand) {
	cfg := t.Cfg
	vpSlots := make([]int, len(t.ASes)) // next VP host slot per AS

	var transits, ents []int
	for _, a := range t.ASes {
		switch a.Role {
		case RoleTransit:
			transits = append(transits, a.Index)
		case RoleEnterprise:
			ents = append(ents, a.Index)
		}
	}

	addVP := func(name string, kind VPKind, asIdx, attach int, limited bool) *VP {
		addr := plans[asIdx].VPAddr(vpSlots[asIdx])
		vpSlots[asIdx]++
		host := t.Net.AddHost(name, addr, netsim.DefaultHostBehavior())
		if limited {
			// Dedicated first-hop gateway carrying only this VP.
			gw := t.Net.AddRouter(fmt.Sprintf("as%d-vpgw-%s", asIdx, name), netsim.RouterBehavior{
				OptionsRateLimit: cfg.SourceRateLimitPPS,
				OptionsRateBurst: cfg.SourceRateLimitPPS / 2,
			})
			j := len(t.Routers[asIdx])
			t.Routers[asIdx] = append(t.Routers[asIdx], gw)
			t.parent[asIdx] = append(t.parent[asIdx], 0)
			t.attachChild(plans, rng, asIdx, j, 0)
			attach = j
		}
		gwAddr := plans[asIdx].NextInfra()
		gwIf, _ := t.Net.Connect(t.Routers[asIdx][attach], host, gwAddr, addr, time.Millisecond)
		t.plane.setOwner(asIdx, gwAddr, attach)
		s := &t.plane.ases[asIdx]
		s.vps = append(s.vps, hostSlot{gw: gwIf.ID(), attach: int32(attach), dest: -1, octet: addr.As4()[3]})
		return &VP{Name: name, Kind: kind, Addr: addr, ASIdx: asIdx, Host: host, SourceRateLimited: limited}
	}

	for i := 0; i < cfg.NumMLab; i++ {
		asIdx := transits[i%len(transits)]
		limited := i < cfg.MLabRateLimited
		t.VPs = append(t.VPs, addVP(fmt.Sprintf("mlab-%d", i), MLab, asIdx, 0, limited))
	}
	for i := 0; i < cfg.NumPlanetLab; i++ {
		asIdx := ents[i%len(ents)]
		limited := i < cfg.MLabRateLimited/2
		t.VPs = append(t.VPs, addVP(fmt.Sprintf("pl-%d", i), PlanetLab, asIdx, 0, limited))
	}
	for _, a := range t.ASes {
		if a.Role == RoleCloud {
			t.CloudVPs = append(t.CloudVPs, addVP(a.Name, Cloud, a.Index, 0, false))
		}
	}
}
