package netsim

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"recordroute/internal/packet"
)

func TestFaultWindowOneShot(t *testing.T) {
	w := faultWindow{offset: 10 * time.Second, duty: 5 * time.Second}
	cases := []struct {
		at     time.Duration
		active bool
		flips  int
	}{
		{9 * time.Second, false, 0},
		{10 * time.Second, true, 1},
		{14 * time.Second, true, 1},
		{15 * time.Second, false, 2},
		{1 * time.Hour, false, 2},
	}
	for _, c := range cases {
		if got := w.active(c.at); got != c.active {
			t.Errorf("active(%v) = %v, want %v", c.at, got, c.active)
		}
		if got := w.flips(c.at); got != c.flips {
			t.Errorf("flips(%v) = %d, want %d", c.at, got, c.flips)
		}
	}
}

func TestFaultWindowPeriodic(t *testing.T) {
	w := faultWindow{offset: 10 * time.Second, period: 20 * time.Second, duty: 5 * time.Second}
	cases := []struct {
		at     time.Duration
		active bool
		flips  int
	}{
		{9 * time.Second, false, 0},
		{12 * time.Second, true, 1},
		{16 * time.Second, false, 2},
		{31 * time.Second, true, 3},
		{36 * time.Second, false, 4},
		{52 * time.Second, true, 5},
	}
	for _, c := range cases {
		if got := w.active(c.at); got != c.active {
			t.Errorf("active(%v) = %v, want %v", c.at, got, c.active)
		}
		if got := w.flips(c.at); got != c.flips {
			t.Errorf("flips(%v) = %d, want %d", c.at, got, c.flips)
		}
	}
}

// pingAt schedules a plain ping injection at an absolute virtual time.
func pingAt(t *testing.T, c *chain, at time.Duration, id uint16) {
	t.Helper()
	wire := makePingRR(t, a(vpAddrStr), a(destAddrStr), id, 1, 64, 0)
	c.net.Engine().At(at, func() { c.vp.Inject(wire) })
}

// replyIDs decodes the ICMP IDs of all captured replies.
func replyIDs(t *testing.T, c *chain) []uint16 {
	t.Helper()
	var ids []uint16
	for _, rep := range c.replies {
		_, icmp := decodeReply(t, rep.raw)
		ids = append(ids, icmp.ID)
	}
	return ids
}

func TestChaosLinkFlapDropsDuringWindow(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// Flap the VP uplink: down during [1s, 2s), both directions.
	lf := linkFaults{down: faultWindow{offset: time.Second, duty: time.Second}}
	up := c.routers[0].Interfaces()[0] // r0's iface toward the VP
	fa, fb := lf, lf
	up.faults, up.peer.faults = &fa, &fb

	pingAt(t, c, 0, 1)
	pingAt(t, c, 1500*time.Millisecond, 2)
	pingAt(t, c, 3*time.Second, 3)
	c.net.Engine().Run()

	if ids := replyIDs(t, c); !reflect.DeepEqual(ids, []uint16{1, 3}) {
		t.Errorf("reply IDs = %v, want [1 3] (probe 2 sent mid-flap)", ids)
	}
	if got := c.net.Counter("chaos.link.down"); got != 1 {
		t.Errorf("chaos.link.down = %d, want 1", got)
	}
}

func TestChaosDuplicationDeliversCopies(t *testing.T) {
	c := buildChain(1, nil, DefaultHostBehavior())
	// Duplicate every packet the VP transmits toward r0 (one direction
	// only, so the copies don't multiply further down the path).
	up := c.routers[0].Interfaces()[0].peer // the VP's uplink iface
	up.faults = &linkFaults{salt: 1, dup: 1}

	pingAt(t, c, 0, 7)
	c.net.Engine().Run()

	if ids := replyIDs(t, c); !reflect.DeepEqual(ids, []uint16{7, 7}) {
		t.Errorf("reply IDs = %v, want [7 7] (duplicate elicits a second reply)", ids)
	}
	if got := c.net.Counter("chaos.link.dup"); got != 1 {
		t.Errorf("chaos.link.dup = %d, want 1", got)
	}
}

func TestChaosJitterDelaysButDelivers(t *testing.T) {
	c := buildChain(1, nil, DefaultHostBehavior())
	up := c.routers[0].Interfaces()[0].peer
	up.faults = &linkFaults{salt: 99, jitterMax: 50 * time.Millisecond}

	pingAt(t, c, 0, 8)
	c.net.Engine().Run()

	if len(c.replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(c.replies))
	}
	// Baseline RTT is 4 link hops at 1ms; jitter adds (0, 50ms) once.
	if rtt := c.replies[0].at; rtt <= 4*time.Millisecond || rtt > 54*time.Millisecond {
		t.Errorf("reply at %v, want in (4ms, 54ms]", rtt)
	}
}

func TestChaosRouterOutageWindow(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	c.routers[1].faults = &routerFaults{offline: faultWindow{offset: time.Second, duty: time.Second}}

	pingAt(t, c, 0, 1)
	pingAt(t, c, 1500*time.Millisecond, 2)
	pingAt(t, c, 3*time.Second, 3)
	c.net.Engine().Run()

	if ids := replyIDs(t, c); !reflect.DeepEqual(ids, []uint16{1, 3}) {
		t.Errorf("reply IDs = %v, want [1 3] (probe 2 hit the outage)", ids)
	}
	if got := c.net.Counter("chaos.router.offline"); got != 1 {
		t.Errorf("chaos.router.offline = %d, want 1", got)
	}
}

func TestChaosICMPSuppressionWindow(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// r1 suppresses ICMP errors during [0, 1s).
	c.routers[1].faults = &routerFaults{suppress: faultWindow{duty: time.Second}}

	// TTL-2 probes expire at r1; the first falls inside the window.
	w1 := makePingRR(t, a(vpAddrStr), a(destAddrStr), 1, 1, 2, 0)
	w2 := makePingRR(t, a(vpAddrStr), a(destAddrStr), 2, 1, 2, 0)
	c.net.Engine().At(0, func() { c.vp.Inject(w1) })
	c.net.Engine().At(2*time.Second, func() { c.vp.Inject(w2) })
	c.net.Engine().Run()

	if len(c.replies) != 1 {
		t.Fatalf("replies = %d, want only the post-window Time Exceeded", len(c.replies))
	}
	if _, icmp := decodeReply(t, c.replies[0].raw); icmp.Type != packet.ICMPTimeExceeded {
		t.Errorf("reply type = %v, want Time Exceeded", icmp.Type)
	}
	if got := c.net.Counter("chaos.icmp.suppressed"); got != 1 {
		t.Errorf("chaos.icmp.suppressed = %d, want 1", got)
	}
}

func TestChaosRouteWithdrawalInvalidatesRouteCache(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// r0 transiently withdraws the destination /32 during [1s, 2s).
	c.routers[0].faults = &routerFaults{
		withdraw: faultWindow{offset: time.Second, duty: time.Second},
		prefix:   netip.PrefixFrom(a(destAddrStr), 32),
	}

	// Probe 1 is routed before the withdrawal; probe 2 must not be
	// forwarded while the window is open; probe 3 must get the route
	// back after restoration.
	pingAt(t, c, 0, 1)
	pingAt(t, c, 1500*time.Millisecond, 2)
	pingAt(t, c, 3*time.Second, 3)
	c.net.Engine().Run()

	if ids := replyIDs(t, c); !reflect.DeepEqual(ids, []uint16{1, 3}) {
		t.Errorf("reply IDs = %v, want [1 3] (probe 2 blackholed)", ids)
	}
	if got := c.net.Counter("router.drop.noroute"); got != 1 {
		t.Errorf("router.drop.noroute = %d, want 1", got)
	}
	// r0 observes both window boundaries during lookups → two flips.
	if got := c.net.Counter("chaos.route.flip"); got != 2 {
		t.Errorf("chaos.route.flip = %d, want 2", got)
	}
}

// Epoch churn is counted once per blackholed lookup: three probes into
// a churned prefix are three lookups at r0, three blackholes.
func TestChaosChurnCountsEveryBlackholedLookup(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	c.routers[0].faults = &routerFaults{
		churnProb:   1, // churned in every epoch
		churnPrefix: netip.PrefixFrom(a(destAddrStr), 32),
	}
	c.net.SetFaultEpoch(3)

	for i := 0; i < 3; i++ {
		pingAt(t, c, time.Duration(i)*time.Second, uint16(i+1))
	}
	c.net.Engine().Run()

	if len(c.replies) != 0 {
		t.Errorf("replies = %d, want 0 (prefix churned out)", len(c.replies))
	}
	if got := c.net.Counter("chaos.route.churn"); got != 3 {
		t.Errorf("chaos.route.churn = %d, want 3", got)
	}
	if got := c.net.Counter("router.drop.noroute"); got != 3 {
		t.Errorf("router.drop.noroute = %d, want 3", got)
	}
}

// buildChaosChain builds a chain with a full FaultPlan installed from
// cfg, registering every router interface, router, and the dest prefix.
func buildChaosChain(t *testing.T, n int, cfg FaultConfig) (*chain, FaultSummary) {
	t.Helper()
	c := buildChain(n, nil, DefaultHostBehavior())
	plan := NewFaultPlan(cfg)
	for _, r := range c.routers {
		plan.AddRouter(r)
		for _, ifc := range r.Interfaces() {
			plan.AddLink(ifc)
		}
	}
	plan.AddWithdrawal(c.routers[0], netip.PrefixFrom(a(destAddrStr), 32))
	return c, plan.Install()
}

func TestFaultPlanContentKeyedLossIsReproducible(t *testing.T) {
	run := func() ([]uint16, uint64) {
		cfg := FaultConfig{Seed: 42, LossProb: 0.4}
		c, sum := buildChaosChain(t, 3, cfg)
		if sum.LossyLinks != sum.Links {
			t.Fatalf("lossy links = %d, want all %d", sum.LossyLinks, sum.Links)
		}
		for i := 0; i < 200; i++ {
			pingAt(t, c, time.Duration(i)*10*time.Millisecond, uint16(i))
		}
		c.net.Engine().Run()
		return replyIDs(t, c), c.net.Counter("chaos.link.loss")
	}
	ids1, lost1 := run()
	ids2, lost2 := run()
	if !reflect.DeepEqual(ids1, ids2) || lost1 != lost2 {
		t.Errorf("chaos loss not reproducible: %d vs %d replies, %d vs %d losses",
			len(ids1), len(ids2), lost1, lost2)
	}
	if lost1 == 0 {
		t.Error("no chaos losses at 40% per-direction loss")
	}
	if len(ids1) == 0 {
		t.Error("no survivors at 40% per-direction loss")
	}
}

func TestFaultPlanSeedSelectsDifferentWeather(t *testing.T) {
	cfg := FaultConfig{Seed: 1, LossProb: 0.5, LossFrac: 0.5, FlapFrac: 0.5}
	_, sum1 := buildChaosChain(t, 8, cfg)
	cfg.Seed = 2
	_, sum2 := buildChaosChain(t, 8, cfg)
	// With 9 links at 50% fractions, two seeds picking identical subsets
	// for both loss and flaps is a ~1/2^18 coincidence; treat as failure.
	if sum1 == sum2 {
		t.Errorf("identical fault summaries under different seeds: %v", sum1)
	}
}

func TestFaultPlanZeroConfigInstallsNothing(t *testing.T) {
	c, sum := buildChaosChain(t, 2, FaultConfig{Seed: 7})
	if sum.LossyLinks+sum.FlapLinks+sum.JitterLinks+sum.DupLinks+
		sum.OfflineRouters+sum.SuppressRouters+sum.WithdrawnPfxs != 0 {
		t.Errorf("zero config installed faults: %v", sum)
	}
	for _, r := range c.routers {
		if r.faults != nil {
			t.Errorf("router %s has fault state", r.Name())
		}
		for _, ifc := range r.Interfaces() {
			if ifc.faults != nil {
				t.Errorf("iface %v has fault state", ifc.Addr)
			}
		}
	}
}
