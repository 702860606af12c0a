package netsim

import (
	"net/netip"
	"time"

	"recordroute/internal/packet"
)

// RouterBehavior configures how a router treats packets, especially those
// carrying IP options. The zero value is a fully RFC-conformant router:
// it stamps Record Route, decrements TTL, sends Time Exceeded errors, and
// imposes no options rate limit.
type RouterBehavior struct {
	// NoStampRR forwards options packets without recording an address
	// (the RFC 7126 / BCP 186 "ignore" stance the paper's §3.5 hunts for).
	NoStampRR bool
	// DropOptions silently drops any packet carrying IP options
	// (AS-edge filtering).
	DropOptions bool
	// NoTTLDecrement makes the router invisible to traceroute: it
	// forwards without decrementing TTL (an "anonymous" router or an
	// MPLS tunnel interior hop). Such a router can still stamp RR.
	NoTTLDecrement bool
	// NoTimeExceeded drops expired packets silently instead of
	// generating ICMP Time Exceeded.
	NoTimeExceeded bool
	// OptionsRateLimit, if positive, is the packets-per-second budget of
	// the control-plane slow path that handles options packets;
	// non-conforming packets are dropped (CoPP-style policing).
	OptionsRateLimit float64
	// OptionsRateBurst is the policer's burst size; it defaults to the
	// rate (one second's worth) when zero.
	OptionsRateBurst float64
	// SlowPathDelay is extra per-packet forwarding latency applied to
	// options packets, modelling route-processor punting.
	SlowPathDelay time.Duration
	// ICMPErrorRateLimit, if positive, caps the router's ICMP error
	// generation (Time Exceeded and friends) in errors per second, as
	// real routers do; excess expirations are dropped silently.
	ICMPErrorRateLimit float64
	// AllowSourceRoute makes the router honor LSRR/SSRR options
	// addressed to it, forwarding to the next listed hop. Modern
	// routers refuse (RFC 7126 recommends dropping source-routed
	// packets), which is the default — and the reason the 2005 tech
	// report found source routing unusable while this paper finds
	// Record Route workable.
	AllowSourceRoute bool
}

// Router is a packet-forwarding node.
type Router struct {
	name       string
	net        *Network
	idx        int // registration index; replica clones keep it
	behavior   RouterBehavior
	fib        *FIB
	ifaces     []*Iface
	limiter    *TokenBucket
	errLimiter *TokenBucket
	ipid       uint16
	faults     *routerFaults // nil when no fault plan afflicts this router

	// fibShared marks fib as part of a frozen route plane possibly
	// shared with replica networks (see Network.Freeze): mutation must
	// copy first. It clears on the first copy-on-write.
	fibShared bool

	// scratch decoding state; safe because the engine is single-threaded.
	ip packet.IPv4
	sr packet.SourceRoute
}

// AddRouter creates a router and registers it with the network.
func (n *Network) AddRouter(name string, behavior RouterBehavior) *Router {
	r := &Router{
		name:     name,
		net:      n,
		behavior: behavior,
		fib:      NewFIB(),
		ipid:     seedIPID(name),
	}
	n.register(r)
	return r
}

// optionsLimiter returns the slow-path policer, materializing it on
// first use. Policer state is copy-on-write across replica clones: the
// frozen plane carries only the behavior's rate config, and each
// network allocates its own mutable bucket the first time a policed
// packet arrives. Exact because a fresh bucket starts full and Allow's
// refill clamps at burst — a bucket born at virtual time t is
// indistinguishable from one born at time 0 and first consulted at t.
func (r *Router) optionsLimiter() *TokenBucket {
	if r.limiter == nil && r.behavior.OptionsRateLimit > 0 {
		burst := r.behavior.OptionsRateBurst
		if burst <= 0 {
			burst = r.behavior.OptionsRateLimit
		}
		r.limiter = NewTokenBucket(r.behavior.OptionsRateLimit, burst)
	}
	return r.limiter
}

// icmpErrLimiter is optionsLimiter for the ICMP-error policer.
func (r *Router) icmpErrLimiter() *TokenBucket {
	if r.errLimiter == nil && r.behavior.ICMPErrorRateLimit > 0 {
		r.errLimiter = NewTokenBucket(r.behavior.ICMPErrorRateLimit, r.behavior.ICMPErrorRateLimit/2)
	}
	return r.errLimiter
}

// Name returns the router's name.
func (r *Router) Name() string { return r.name }

// count bumps a network counter and, when per-node attribution is
// enabled, charges it to this router. The extra branch is the whole
// cost of disabled observability.
func (r *Router) count(id int) {
	r.net.CountID(id, 1)
	if r.net.nodeCounts != nil {
		r.net.countNode(r.name, id, 1)
	}
}

// countName is count for cold paths that never pre-interned an ID.
func (r *Router) countName(name string) { r.count(CounterID(name)) }

// trace emits a packet event for the datagram currently decoded in
// r.ip; callers guard on r.net.tracer != nil.
func (r *Router) trace(event string) {
	r.net.tracer(r.net.Now(), r.name, event, r.ip.Src, r.ip.Dst)
}

// Behavior returns the router's configured behavior.
func (r *Router) Behavior() RouterBehavior { return r.behavior }

// FIB returns the router's forwarding table for route installation.
func (r *Router) FIB() *FIB { return r.fib }

// Index returns the router's registration index within its network —
// the key a RoutePlane answers by. Replica clones keep it.
func (r *Router) Index() int { return r.idx }

// AddRoute installs a route for prefix via the given interface. On a
// router whose FIB belongs to a frozen, shared route plane the table is
// copied first (copy-on-write), so siblings cloned from the same
// snapshot never see the change.
func (r *Router) AddRoute(prefix netip.Prefix, via *Iface) {
	if r.fibShared {
		r.fib = r.fib.clone()
		r.fibShared = false
	}
	r.fib.Add(prefix, via)
}

// lookupRoute resolves the egress interface for dst. The router's fault
// state goes first (a withdrawn or churned prefix is blackholed), then
// the network's route plane, then the FIB. Nothing is memoized: every
// answer is recomputed from frozen slabs and the current fault clock,
// so there is no cache to invalidate at a withdrawal boundary, an
// epoch change or a clone.
func (r *Router) lookupRoute(dst netip.Addr) *Iface {
	if f := r.faults; f != nil && r.blackholed(f, dst) {
		return nil
	}
	if p := r.net.plane; p != nil {
		if id := p.Egress(r.idx, dst); id >= 0 {
			return r.net.ifaces[id]
		}
	}
	return r.net.localize(r.fib.Lookup(dst))
}

// Interfaces returns the router's interfaces in attachment order.
func (r *Router) Interfaces() []*Iface { return r.ifaces }

// ownsAddr reports whether addr is local to the router: the route
// plane answers when the network has one, otherwise (hand-built
// networks) the router scans its own interfaces.
func (r *Router) ownsAddr(addr netip.Addr) bool {
	if p := r.net.plane; p != nil {
		return p.Owns(r.idx, addr)
	}
	for _, i := range r.ifaces {
		if i.Addr == addr {
			return true
		}
	}
	return false
}

func (r *Router) addIface(i *Iface) { r.ifaces = append(r.ifaces, i) }

// nextID returns the next IP identifier from the router's shared
// counter. A shared monotonic counter across interfaces is the signal
// MIDAR-style alias resolution relies on.
func (r *Router) nextID() uint16 {
	r.ipid++
	return r.ipid
}

// Receive implements Node. It is the router's forwarding path: a
// packet in transit is forwarded in place. Decode parses and verifies
// the header; the router then writes the decremented TTL, stamps its
// egress address into the Record Route and Timestamp options the decoded
// header aliases, refreshes the checksum (IPv4.Rewrite) and hands the
// very buffer it was given to the egress link. Nothing is re-encoded or
// copied.
func (r *Router) Receive(pkt []byte, on *Iface) bool {
	if f := r.faults; f != nil && f.offline.active(r.net.Now()) {
		r.count(cChaosOffline)
		if r.net.tracer != nil {
			// The header is not decoded yet; the event carries no addresses.
			r.net.tracer(r.net.Now(), r.name, "chaos.router.offline", netip.Addr{}, netip.Addr{})
		}
		return false
	}
	payload, err := r.ip.Decode(pkt)
	if err != nil {
		r.countName("router.drop.parse")
		return false
	}
	hasOpts := len(r.ip.Options) > 0

	// Options packets traverse the slow path: filtering and policing
	// happen before any other processing, including local delivery.
	if hasOpts {
		if r.behavior.DropOptions {
			r.countName("router.drop.filter")
			if r.net.tracer != nil {
				r.trace("router.drop.filter")
			}
			return false
		}
		if lim := r.optionsLimiter(); lim != nil && !lim.Allow(r.net.Now()) {
			r.countName("router.drop.ratelimit")
			if r.net.tracer != nil {
				r.trace("router.drop.ratelimit")
			}
			return false
		}
		r.count(cRouterSlowpath)
		if r.net.tracer != nil {
			r.trace("router.slowpath")
		}
	}

	if r.ownsAddr(r.ip.Dst) {
		if found, err := r.ip.SourceRouteOption(&r.sr); found && err == nil && !r.sr.Exhausted() {
			return r.forwardSourceRouted(pkt)
		}
		r.deliverLocal(payload)
		return false
	}

	// TTL handling. An "anonymous" router forwards without decrementing.
	if !r.behavior.NoTTLDecrement {
		if r.ip.TTL <= 1 {
			if !r.behavior.NoTimeExceeded {
				r.sendTimeExceeded(pkt, on)
			} else {
				r.countName("router.drop.ttl.silent")
			}
			r.countName("router.ttl.expired")
			if r.net.tracer != nil {
				r.trace("router.ttl.expired")
			}
			return false
		}
		r.ip.TTL--
	}

	egress := r.lookupRoute(r.ip.Dst)
	if egress == nil {
		r.countName("router.drop.noroute")
		if r.net.tracer != nil {
			r.trace("router.drop.noroute")
		}
		return false
	}

	// Stamp Record Route with the outgoing interface address (RFC 791:
	// "its own internet address as known in the environment into which
	// this datagram is being forwarded").
	if hasOpts && !r.behavior.NoStampRR {
		if rr, ok := r.ip.RecordRouteData(); ok && packet.StampRecordRoute(rr, egress.Addr) {
			r.count(cRouterStamped)
			if r.net.tracer != nil {
				r.trace("router.rr.stamped")
			}
		}
		// The Internet Timestamp option is processed on the same slow
		// path; a full option increments its overflow counter.
		if ts, ok := r.ip.TimestampData(); ok {
			packet.StampTimestamp(ts, egress.Addr, uint32(r.net.Now().Milliseconds()))
			r.count(cRouterTS)
			if r.net.tracer != nil {
				r.trace("router.ts.stamped")
			}
		}
	}

	out := r.ip.Rewrite(pkt)
	r.count(cRouterFwd)
	if hasOpts && r.behavior.SlowPathDelay > 0 {
		r.net.engine.Schedule(r.behavior.SlowPathDelay, func() { egress.Send(out) })
		return true
	}
	egress.Send(out)
	return true
}

// forwardSourceRouted handles a source-routed packet whose current
// destination is this router (r.sr holds its decoded route): if the
// router honors source routing it swaps in the next listed hop
// (recording its own outgoing address in the slot, per RFC 791) and
// forwards pkt in place, reporting that it handed pkt on; otherwise the
// packet is dropped, the near-universal stance on today's Internet.
func (r *Router) forwardSourceRouted(pkt []byte) bool {
	if !r.behavior.AllowSourceRoute {
		r.countName("router.drop.sourceroute")
		return false
	}
	egress := r.lookupRoute(r.sr.NextHop())
	if egress == nil {
		r.countName("router.drop.noroute")
		return false
	}
	sr, _ := r.ip.SourceRouteData() // the option r.sr was decoded from
	newDst, ok := packet.AdvanceSourceRoute(sr, egress.Addr)
	if !ok {
		r.countName("router.drop.sourceroute")
		return false
	}
	r.ip.Dst = newDst
	if !r.behavior.NoTTLDecrement && r.ip.TTL > 1 {
		r.ip.TTL--
	}
	r.countName("router.fwd.sourceroute")
	egress.Send(r.ip.Rewrite(pkt))
	return true
}

// deliverLocal handles packets addressed to the router itself (r.ip
// holds the already-decoded header). Routers answer ICMP echo (including
// ping-RR, stamping themselves and copying the option into the reply) so
// that they can serve as probe targets and alias-resolution subjects.
// The request is consumed here, so its Record Route option is stamped
// where it lies and the reply's option list points at it.
func (r *Router) deliverLocal(payload []byte) {
	var icmp packet.ICMP
	if r.ip.Protocol != packet.ProtocolICMP || icmp.Decode(payload) != nil {
		r.countName("router.local.ignored")
		return
	}
	if icmp.Type != packet.ICMPEchoRequest {
		r.countName("router.local.ignored")
		return
	}
	hdr := packet.IPv4{
		TTL:      64,
		ID:       r.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      r.ip.Dst,
		Dst:      r.ip.Src,
		Options:  r.net.replyOpts[:0],
	}
	// Copy the Record Route option into the reply and stamp ourselves,
	// as a conformant destination does.
	if rr, ok := r.ip.RecordRouteData(); ok {
		if !r.behavior.NoStampRR {
			packet.StampRecordRoute(rr, r.ip.Dst)
		}
		hdr.Options = append(hdr.Options, packet.Option{Type: packet.OptRecordRoute, Data: rr})
	}
	r.net.replyOpts = hdr.Options
	if r.net.tracer != nil {
		r.trace("router.echo.reply")
	}
	r.sendLocal(&hdr, icmp.EchoReply())
}

// sendTimeExceeded emits an ICMP Time Exceeded error quoting the expired
// packet as received (its Record Route option included, which is what
// lets TTL-limited ping-RR results be read at the source, §4.2).
// Generation is subject to the router's ICMP error policer.
func (r *Router) sendTimeExceeded(orig []byte, on *Iface) {
	if f := r.faults; f != nil && f.suppress.active(r.net.Now()) {
		r.count(cChaosSuppress)
		if r.net.tracer != nil {
			r.trace("chaos.icmp.suppressed")
		}
		return
	}
	if lim := r.icmpErrLimiter(); lim != nil && !lim.Allow(r.net.Now()) {
		r.countName("router.drop.errlimit")
		if r.net.tracer != nil {
			r.trace("router.drop.errlimit")
		}
		return
	}
	hdrLen := int(orig[0]&0xf) * 4
	if hdrLen > len(orig) {
		hdrLen = len(orig)
	}
	src := r.ip.Src // origin header was decoded into r.ip by Receive
	e := packet.NewError(packet.ICMPTimeExceeded, packet.CodeTTLExceeded, orig[:hdrLen], orig[hdrLen:])
	hdr := packet.IPv4{
		TTL:      64,
		ID:       r.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      on.Addr, // errors originate from the receiving interface
		Dst:      src,
	}
	r.countName("router.icmp.timeexceeded")
	if r.net.tracer != nil {
		r.trace("router.icmp.timeexceeded")
	}
	r.sendLocal(&hdr, e)
}

// sendLocal routes and transmits a router-originated ICMP message,
// encoding header and message straight into one pooled buffer.
func (r *Router) sendLocal(hdr *packet.IPv4, m *packet.ICMP) {
	egress := r.lookupRoute(hdr.Dst)
	if egress == nil {
		r.countName("router.drop.noroute.local")
		return
	}
	out, err := hdr.AppendHeader(r.net.getBuf(), m.Len())
	if err != nil {
		r.countName("router.drop.encode")
		return
	}
	egress.Send(m.AppendTo(out))
}
