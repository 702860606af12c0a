package netsim

import "sync"

// Counter names are interned into small integer IDs at first use, so the
// per-packet hot path (forwarding, link transmission, slow-path
// accounting) bumps a slice slot instead of hashing a string into a map
// millions of times per campaign. The registry is process-global: IDs
// are stable across Networks, which also lets shard replicas of the same
// topology share call-site IDs.
var counterReg = struct {
	sync.Mutex
	ids   map[string]int
	names []string
	local map[string]bool
}{ids: make(map[string]int), local: make(map[string]bool)}

// CounterID interns a counter name, returning its stable ID. Call sites
// on hot paths resolve their ID once (package init or construction) and
// use Network.CountID.
func CounterID(name string) int {
	counterReg.Lock()
	defer counterReg.Unlock()
	if id, ok := counterReg.ids[name]; ok {
		return id
	}
	id := len(counterReg.names)
	counterReg.ids[name] = id
	counterReg.names = append(counterReg.names, name)
	return id
}

// RegisterLocalCounter interns a counter name like CounterID but marks
// it engine-local: its value depends on per-engine evaluation order
// (which engine's traffic happens to observe a fault window or hit a
// churned prefix) rather than counting simulated events, so it is not
// shard-invariant and must stay out of merged cross-shard totals.
// Observability consumers filter on CounterIsLocal.
func RegisterLocalCounter(name string) int {
	id := CounterID(name)
	counterReg.Lock()
	counterReg.local[name] = true
	counterReg.Unlock()
	return id
}

// CounterIsLocal reports whether name was registered as an engine-local
// diagnostic (see RegisterLocalCounter).
func CounterIsLocal(name string) bool {
	counterReg.Lock()
	defer counterReg.Unlock()
	return counterReg.local[name]
}

// counterName resolves an ID back to its name.
func counterName(id int) string {
	counterReg.Lock()
	defer counterReg.Unlock()
	return counterReg.names[id]
}

// lookupCounterID resolves a name without registering it.
func lookupCounterID(name string) (int, bool) {
	counterReg.Lock()
	defer counterReg.Unlock()
	id, ok := counterReg.ids[name]
	return id, ok
}

// counterSnapshot returns the registered names, index = ID.
func counterSnapshot() []string {
	counterReg.Lock()
	defer counterReg.Unlock()
	return append([]string(nil), counterReg.names...)
}

// CounterMark is a checkpoint of the process-global counter registry,
// taken with MarkCounters and restored with Reset. The registry only
// ever grows (interning is how shard replicas of one topology share
// call-site IDs), so long-lived processes that keep registering fresh
// dynamic names — test suites churning through ad-hoc counters,
// repeated topology rebuilds with generation-specific names — would
// otherwise leak interned strings and drift IDs across tests.
//
// Reset truncates the registry back to the checkpoint: IDs below the
// mark (including every pre-interned hot-path ID) keep their meaning,
// names registered after the mark are forgotten, and the next CounterID
// call reuses the freed ID range. Reset must only be called when no
// live Network still counts under post-mark IDs — Networks hold plain
// slices indexed by ID, so stale high IDs would silently alias onto
// newly registered names. It is a scoping tool for tests and
// long-running drivers, not something to call mid-campaign.
type CounterMark int

// MarkCounters checkpoints the current registry size.
func MarkCounters() CounterMark {
	counterReg.Lock()
	defer counterReg.Unlock()
	return CounterMark(len(counterReg.names))
}

// Reset restores the registry to the checkpoint, forgetting every name
// interned after it. See CounterMark for the safety contract.
func (m CounterMark) Reset() {
	counterReg.Lock()
	defer counterReg.Unlock()
	if int(m) >= len(counterReg.names) {
		return
	}
	for _, name := range counterReg.names[m:] {
		delete(counterReg.ids, name)
		delete(counterReg.local, name)
	}
	counterReg.names = counterReg.names[:m]
}

// NumCounters reports how many counter names are currently interned
// (diagnostics; pairs with MarkCounters/Reset in leak tests).
func NumCounters() int {
	counterReg.Lock()
	defer counterReg.Unlock()
	return len(counterReg.names)
}

// counterPad is the number of spare uint64 slots placed on each side of
// a freshly allocated counter slice. Shard replicas bump their counters
// concurrently during parallel campaigns; without padding, counter
// slices allocated back-to-back can land on the same cache line and the
// independent per-shard increments turn into cross-core false sharing.
// Eight slots = 64 bytes = one cache line on every platform we run on.
const counterPad = 8

// newCounters allocates a counter slice sized to the current registry,
// padded with counterPad slots on both sides. The full slice expression
// caps the result at its length, so a later append (registry grown after
// allocation) reallocates instead of overwriting the trailing pad. That
// growth path drops the padding — acceptable: it only triggers for
// counters interned after the network was built, which by construction
// are cold.
func newCounters() []uint64 {
	counterReg.Lock()
	n := len(counterReg.names)
	counterReg.Unlock()
	buf := make([]uint64, counterPad+n+counterPad)
	return buf[counterPad : counterPad+n : counterPad+n]
}

// Pre-interned IDs for the per-packet hot paths.
var (
	cLinkTx         = CounterID("link.tx")
	cLinkLoss       = CounterID("link.loss")
	cRouterFwd      = CounterID("router.fwd")
	cRouterSlowpath = CounterID("router.slowpath")
	cRouterStamped  = CounterID("router.rr.stamped")
	cRouterTS       = CounterID("router.ts.stamped")
	cHostInject     = CounterID("host.inject")
	cHostEchoReply  = CounterID("host.echo.reply")
	cHostUDPUnreach = CounterID("host.udp.unreach")

	// A route flip is one router observing, during a route lookup, that
	// a transient withdrawal window opened or closed since its previous
	// lookup. Which boundaries a router observes depends on when its own
	// engine's traffic reaches it, so the counter is engine-local
	// (excluded from merged cross-shard totals).
	cChaosRouteFlip = RegisterLocalCounter("chaos.route.flip")

	// Churn counts one per route lookup blackholed by an epoch-churned
	// prefix. How many lookups hit a churned prefix follows the engine's
	// own share of the traffic, so the counter is local too.
	cChaosChurn = RegisterLocalCounter("chaos.route.churn")
)
