package measure

import (
	"net/netip"
	"sync"

	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/trace"
)

// Fleet is the campaign surface the study layer measures through: a set
// of vantage points that can fan batches out and run the virtual clock
// to quiescence. ParallelCampaign implements it, whether its replicas
// are K clones of a frozen snapshot or the one topology it was handed
// (NewSingleEngineCampaign), so experiments choose an execution
// strategy without changing shape.
//
// Partial-results contract: when a shard fails mid-primitive (a panic
// while its engine drains), the failure is contained to that shard.
// The primitive still returns, merging the surviving shards' results
// as usual; the failed shard's VPs are missing (or, if the failure
// struck between batch completions, partial) in the returned maps and
// are excluded from every later primitive. ShardErrors reports exactly
// which VPs were lost and why — callers that need completeness must
// check it after each primitive. A single-engine campaign contains its
// panics the same way: its one shard dies and every VP is lost.
type Fleet interface {
	// VP returns the named vantage point, or nil.
	VP(name string) *VantagePoint
	// Run drains pending events on every engine the fleet spans and
	// leaves all fleet clocks at the same virtual time.
	Run()
	// PingRRAll sends one ping-RR from every VP to every destination.
	PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result
	// PingAll sends count plain pings per destination from every VP.
	PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result
	// PingRRUDPAll sends one ping-RRudp from every VP to its targets.
	PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result
	// PingBatchVP sends count plain pings per destination from the
	// single named VP — the origin phases the paper runs from one
	// vantage point. A sharded executor fans contiguous destination
	// ranges across its engine replicas; send times and sequence numbers
	// derive from each destination's global index, so the merge is
	// invariant under shard count mod ReplyIPID (DESIGN.md §15).
	// Results are grouped per destination in send order; nil when the
	// VP is unknown.
	PingBatchVP(vp string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result
	// PingSeriesVP probes every address rounds times from the named VP,
	// round-major interleaved (the alias IP-ID sampling schedule), and
	// returns flat results in global spec order (round*len(addrs)+i). A
	// sharded executor partitions addresses across replicas keeping all
	// addresses that share group[i] on one replica, so IP-ID series
	// compared pairwise stay co-located with their shared counters;
	// group may be nil when no such constraint exists.
	PingSeriesVP(vp string, addrs []netip.Addr, group []int, rounds int, opts probe.Options) []probe.Result
	// DoubletreeAll runs one Doubletree traceroute round: each VP
	// traces its listed targets sequentially under the session's stop
	// sets (exhaustively when opts.Exhaustive), and the per-VP deltas
	// are merged into the session's global set afterwards.
	DoubletreeAll(perVP map[string][]netip.Addr, sess *trace.Session, opts trace.Options) map[string]*trace.VPRound
	// ShardErrors reports executor slices that failed during earlier
	// primitives, in shard order; empty while every shard is healthy.
	// See the partial-results contract above.
	ShardErrors() []ShardError
	// Observe attaches an observability configuration to every engine
	// and prober the fleet owns; nil or inactive observers are no-ops.
	Observe(o *obs.Observer)
	// Metrics captures a labeled snapshot of the fleet's counters, one
	// ShardMetrics per engine the fleet spans.
	Metrics(label string) *obs.Snapshot
}

var _ Fleet = (*ParallelCampaign)(nil)

// batchJournal tells perVPPhase how one primitive's per-VP batches
// live in a journal: how to restore a completed batch on resume, how
// to record a fresh one, and how many prober sequence numbers it
// consumed. A nil batchJournal leaves the phase unarchived — like Run,
// a resumed campaign re-executes it.
type batchJournal[T any] struct {
	archived func(j *Journal, phase int, vp string) (T, bool)
	record   func(j *Journal, phase int, kind, vp string, v T)
	seqs     func(T) int
}

var (
	flatBatches = &batchJournal[[]probe.Result]{
		archived: (*Journal).archivedResults,
		record:   (*Journal).recordResults,
		seqs:     consumedSeqs,
	}
	groupedBatches = &batchJournal[[][]probe.Result]{
		archived: (*Journal).archivedGroups,
		record:   (*Journal).recordGroups,
		seqs: func(gs [][]probe.Result) int {
			n := 0
			for _, g := range gs {
				n += consumedSeqs(g)
			}
			return n
		},
	}
)

// perVPPhase is the one skeleton of every per-VP primitive: open the
// phase, restore the batches a resumed journal already holds, start
// each remaining VP's batch on its home shard and drain the shard,
// checkpoint every completed batch, then re-synchronize the clocks and
// close the phase. start launches one VP's batch and calls done with
// its result; it may return without starting anything when the VP has
// nothing to probe, and the VP is then absent from the returned map.
func perVPPhase[T any](pc *ParallelCampaign, kind string, bj *batchJournal[T], start func(vp *VantagePoint, done func(T))) map[string]T {
	pc.mustInit()
	phase, journaled := pc.beginPhase(kind)
	archive := journaled && bj != nil
	out := make(map[string]T, len(pc.vpNames))
	skip := make(map[string]bool)
	if archive {
		for _, name := range pc.vpNames {
			if v, ok := bj.archived(pc.journal, phase, name); ok {
				out[name] = v
				skip[name] = true
				pc.replaySeqs(name, bj.seqs(v))
			}
		}
	}
	var mu sync.Mutex
	pc.eachShard(func(rep *replica) {
		for _, vp := range rep.vps {
			vp := vp
			if skip[vp.Name] {
				continue
			}
			start(vp, func(v T) {
				mu.Lock()
				out[vp.Name] = v
				mu.Unlock()
				pc.checkpoint(func() {
					if archive {
						bj.record(pc.journal, phase, kind, vp.Name, v)
					}
				})
			})
		}
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return out
}

// PingRRAll sends one ping-RR from every VP to every destination (per-VP
// order may be permuted via orderFor) and returns results keyed by VP
// name, in that VP's send order.
func (pc *ParallelCampaign) PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	return perVPPhase(pc, "ping-rr-all", flatBatches, func(vp *VantagePoint, done func([]probe.Result)) {
		ds := dests
		if orderFor != nil {
			ds = orderFor(vp.Name, dests)
		}
		vp.PingRRBatch(ds, opts, done)
	})
}

// PingAll sends count plain pings per destination from every VP.
func (pc *ParallelCampaign) PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result {
	return perVPPhase(pc, "ping-all", groupedBatches, func(vp *VantagePoint, done func([][]probe.Result)) {
		vp.PingBatch(dests, count, opts, done)
	})
}

// PingRRUDPAll sends one ping-RRudp from every VP to its listed targets.
func (pc *ParallelCampaign) PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result {
	return perVPPhase(pc, "ping-rr-udp-all", flatBatches, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.PingRRUDPBatch(ds, opts, done)
		}
	})
}

// TTLPingRRAll sends TTL-limited ping-RRs: per VP, targets[i] probed
// with ttls[i].
func (pc *ParallelCampaign) TTLPingRRAll(perVP map[string][]netip.Addr, ttls map[string][]uint8, opts probe.Options) map[string][]probe.Result {
	return perVPPhase(pc, "ttl-ping-rr-all", flatBatches, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TTLPingRRBatch(ds, ttls[vp.Name], opts, done)
		}
	})
}

// TracerouteAll traces each VP's listed targets. Its batches are not
// archived: a resumed journaled campaign re-executes the phase.
func (pc *ParallelCampaign) TracerouteAll(perVP map[string][]netip.Addr, opts TraceOptions) map[string][]Trace {
	return perVPPhase(pc, "traceroute-all", nil, func(vp *VantagePoint, done func([]Trace)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TracerouteBatch(ds, opts, done)
		}
	})
}
