package netsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

// runPingRR injects one ping-RR from a network's "vp" host toward the
// chain destination and drains the engine, returning the captured
// replies.
func runPingRR(t *testing.T, n *Network, id uint16) []capturedPacket {
	t.Helper()
	var replies []capturedPacket
	vp := n.Node("vp").(*Host)
	vp.SetSniffer(func(at time.Duration, pkt []byte) {
		replies = append(replies, capturedPacket{at: at, raw: append([]byte(nil), pkt...)})
	})
	vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), id, 1, 64, 9))
	n.Engine().Run()
	return replies
}

func sameReplies(t *testing.T, got, want []capturedPacket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d replies, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].at != want[i].at {
			t.Errorf("reply %d at %v, want %v", i, got[i].at, want[i].at)
		}
		if !bytes.Equal(got[i].raw, want[i].raw) {
			t.Errorf("reply %d bytes differ:\n got %x\nwant %x", i, got[i].raw, want[i].raw)
		}
	}
}

func TestCloneMatchesSourceEndToEnd(t *testing.T) {
	src := buildChain(3, nil, DefaultHostBehavior())
	clone := src.net.Clone()

	want := runPingRR(t, src.net, 7)
	got := runPingRR(t, clone, 7)
	if len(want) != 1 {
		t.Fatalf("source produced %d replies, want 1", len(want))
	}
	sameReplies(t, got, want)
}

// A clone taken after the source has carried traffic must still start
// pristine: clock at zero, IP-ID counters reseeded, buffers fresh —
// byte-identical to a clone taken before any traffic.
func TestCloneIsPristineAfterSourceTraffic(t *testing.T) {
	fresh := buildChain(3, nil, DefaultHostBehavior())
	want := runPingRR(t, fresh.net, 7)

	src := buildChain(3, nil, DefaultHostBehavior())
	for i := uint16(0); i < 5; i++ {
		runPingRR(t, src.net, 100+i) // dirty clocks, IP-IDs, packet buffers
	}
	clone := src.net.Clone()
	if now := clone.Engine().Now(); now != 0 {
		t.Fatalf("clone clock starts at %v, want 0", now)
	}
	sameReplies(t, runPingRR(t, clone, 7), want)
}

func TestCloneSharesFIBUntilWrite(t *testing.T) {
	src := buildChain(2, nil, DefaultHostBehavior())
	clone := src.net.Clone()
	sr := src.routers[0]
	cr := clone.Node(sr.Name()).(*Router)

	if cr.fib != sr.fib {
		t.Fatal("clone router does not share the frozen FIB")
	}
	p := netip.MustParsePrefix("203.0.113.0/24")
	cr.AddRoute(p, cr.ifaces[0])
	if cr.fib == sr.fib {
		t.Fatal("AddRoute on clone mutated the shared FIB in place")
	}
	if got := sr.fib.Lookup(netip.MustParseAddr("203.0.113.1")); got != nil {
		t.Fatalf("clone's route leaked into source FIB: %v", got.Addr)
	}
	if got := cr.fib.Lookup(netip.MustParseAddr("203.0.113.1")); got == nil {
		t.Fatal("clone lost its own added route")
	}
	if cr.fib.Len() != sr.fib.Len()+1 {
		t.Fatalf("clone FIB len %d, source %d", cr.fib.Len(), sr.fib.Len())
	}
}

func TestCloneHostAliasCopyOnWrite(t *testing.T) {
	src := buildChain(2, nil, DefaultHostBehavior())
	clone := src.net.Clone()
	sh := src.dest
	ch := clone.Node("dest").(*Host)

	alias := netip.MustParseAddr("198.51.100.9")
	ch.AddAlias(alias)
	if len(sh.Addrs()) != 1 {
		t.Fatalf("alias leaked into source host: %v", sh.Addrs())
	}
	if len(ch.Addrs()) != 2 || ch.Addrs()[1] != alias {
		t.Fatalf("clone host addrs = %v", ch.Addrs())
	}
}

func TestCloneCountersAndClocksIndependent(t *testing.T) {
	src := buildChain(2, nil, DefaultHostBehavior())
	clone := src.net.Clone()

	runPingRR(t, clone, 3)
	if got := src.net.Counter("link.tx"); got != 0 {
		t.Fatalf("clone traffic bumped source counter link.tx=%d", got)
	}
	if src.net.Engine().Now() != 0 {
		t.Fatalf("clone traffic advanced source clock to %v", src.net.Engine().Now())
	}
	if clone.Counter("link.tx") == 0 {
		t.Fatal("clone counted nothing")
	}
}

// Freeze must not change the source's own behaviour: the same probe
// gives the same answer before and after (the copy-on-write flags only
// matter on mutation).
func TestFrozenSourceKeepsWorking(t *testing.T) {
	fresh := buildChain(3, nil, DefaultHostBehavior())
	want := runPingRR(t, fresh.net, 9)

	src := buildChain(3, nil, DefaultHostBehavior())
	src.net.Freeze()
	sameReplies(t, runPingRR(t, src.net, 9), want)

	// And post-freeze mutations still work, via the COW path.
	r := src.routers[0]
	r.AddRoute(netip.MustParsePrefix("203.0.113.0/24"), r.ifaces[0])
	if r.fib.Lookup(netip.MustParseAddr("203.0.113.5")) == nil {
		t.Fatal("post-freeze AddRoute did not take effect")
	}
}

func TestCounterpartMapsNodes(t *testing.T) {
	src := buildChain(2, nil, DefaultHostBehavior())
	clone := src.net.Clone()
	for _, name := range []string{"vp", "dest", "r0", "r1"} {
		orig := src.net.Node(name)
		got := clone.Counterpart(orig)
		if got == nil || got.Name() != name {
			t.Fatalf("Counterpart(%s) = %v", name, got)
		}
		if got == orig {
			t.Fatalf("Counterpart(%s) returned the source node itself", name)
		}
	}
	if clone.Counterpart(nil) != nil {
		t.Fatal("Counterpart(nil) != nil")
	}
}

// runPingRRBurst injects k simultaneous ping-RR probes and drains the
// engine, returning the surviving replies — enough pressure to make a
// policed router spend its whole token bucket.
func runPingRRBurst(t *testing.T, n *Network, baseID uint16, k int) []capturedPacket {
	t.Helper()
	var replies []capturedPacket
	vp := n.Node("vp").(*Host)
	vp.SetSniffer(func(at time.Duration, pkt []byte) {
		replies = append(replies, capturedPacket{at: at, raw: append([]byte(nil), pkt...)})
	})
	for i := 0; i < k; i++ {
		vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), baseID+uint16(i), 1, 64, 9))
	}
	n.Engine().Run()
	return replies
}

// TestClonePolicerEqualsFreshBuildUnderRateLimit is the copy-on-write
// policer property: clone a source whose token buckets have been run
// dry, and the clone must behave byte-for-byte like a fresh build — the
// replica materializes its own full bucket on first use instead of
// inheriting (or deep-copying) the source's drained state, and replica
// traffic never touches the source's policer.
func TestClonePolicerEqualsFreshBuildUnderRateLimit(t *testing.T) {
	policed := func(i int) RouterBehavior {
		if i == 1 {
			// Small burst clips the simultaneous forward wave; the high
			// refill rate lets the surviving replies back through a few
			// virtual milliseconds later.
			return RouterBehavior{OptionsRateLimit: 500, OptionsRateBurst: 3, ICMPErrorRateLimit: 4}
		}
		return RouterBehavior{}
	}
	const burst = 6

	fresh := buildChain(3, policed, DefaultHostBehavior())
	want := runPingRRBurst(t, fresh.net, 100, burst)
	if len(want) == 0 || len(want) == burst {
		t.Fatalf("reference run passed %d/%d probes; rate limit not exercised", len(want), burst)
	}

	src := buildChain(3, policed, DefaultHostBehavior())
	runPingRRBurst(t, src.net, 100, burst) // drain the source's bucket
	srcDrops := src.net.Counter("router.drop.ratelimit")
	if srcDrops == 0 {
		t.Fatal("source run drained nothing")
	}

	clone := src.net.Clone()
	cr := clone.Node("r1").(*Router)
	if cr.limiter != nil || cr.errLimiter != nil {
		t.Fatal("clone materialized policer buckets eagerly; want copy-on-write")
	}
	got := runPingRRBurst(t, clone, 100, burst)
	sameReplies(t, got, want)
	if cd := clone.Counter("router.drop.ratelimit"); cd != srcDrops {
		t.Errorf("clone dropped %d, fresh-equivalent source dropped %d", cd, srcDrops)
	}

	sr := src.net.Node("r1").(*Router)
	if cr.limiter == nil {
		t.Fatal("clone traffic never materialized its policer")
	}
	if cr.limiter == sr.limiter {
		t.Fatal("clone shares the source's mutable token bucket")
	}
}
