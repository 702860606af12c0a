package study

import (
	"recordroute/internal/measure"
	"recordroute/internal/obs"
)

// Observe attaches an observability configuration to every engine the
// study probes through: the shared topology network (origin pings,
// cloud probing, Figure 4's contention runs) and the sharding fleet's
// replicas, built or not — a lazily built replica inherits the
// observer at init. Attach before running experiments; attaching never
// changes what a run computes (see package obs).
func (s *Study) Observe(o *obs.Observer) {
	if !o.Active() {
		return
	}
	s.Camp.Observe(o)
	s.CloudCamp.Observe(o) // same shared net; wires the cloud probers
	if f := s.Fleet(); f != measure.Fleet(s.Camp) {
		f.Observe(o)
	}
}

// Metrics captures a labeled snapshot spanning the study's engines:
// "shared" for the topology network plus one "shardN" entry per fleet
// replica when the fleet is sharded. With one shard the fleet is the
// shared engine itself, so it is captured exactly once — which is what
// makes Merged totals comparable across shard counts: every simulated
// event lands in exactly one captured engine either way.
func (s *Study) Metrics(label string) *obs.Snapshot {
	shards := []obs.ShardMetrics{obs.Capture("shared", s.Topo.Net)}
	if s.fleet != nil && s.fleet != measure.Fleet(s.Camp) {
		shards = append(shards, s.fleet.Metrics(label).Shards...)
	}
	return obs.NewSnapshot(label, shards...)
}
