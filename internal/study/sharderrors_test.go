package study

import (
	"fmt"
	"strings"
	"testing"

	"recordroute/internal/topology"
)

// shardLossStudy builds a small study whose fleet is two cloned
// replicas, apart from the contention campaigns on s.Topo's engine.
func shardLossStudy(t *testing.T) *Study {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireShardLoss asserts that the study reports the injected panic,
// naming the lost VP.
func requireShardLoss(t *testing.T, s *Study, vp string) {
	t.Helper()
	errs := s.ShardErrors()
	if len(errs) == 0 {
		t.Fatal("injected panic left no shard error: the run would pass off partial results")
	}
	if msg := fmt.Sprint(errs); !strings.Contains(msg, "injected") || !strings.Contains(msg, vp) {
		t.Errorf("shard errors %v do not name the injected panic and VP %s", errs, vp)
	}
}

// TestContentionPanicReported: a panic on s.Topo's engine during Figure 4
// is contained by the one-replica campaign, and the study reports it.
func TestContentionPanicReported(t *testing.T) {
	s := shardLossStudy(t)
	r := s.RunResponsiveness()
	if errs := s.ShardErrors(); len(errs) != 0 {
		t.Fatalf("healthy run reported shard errors: %v", errs)
	}
	s.Topo.Net.Engine().Schedule(0, func() { panic("injected contention fault") })
	s.RunRateLimit(r, 50)
	requireShardLoss(t, s, s.Camp.VPNames()[0])
}

// TestFleetPanicReported: a panic scheduled through a fleet VP's prober
// kills that VP's cloned replica mid-responsiveness, and the study
// reports it even though only the fleet saw it.
func TestFleetPanicReported(t *testing.T) {
	s := shardLossStudy(t)
	vp := s.Topo.VPs[1].Name
	s.Fleet().VP(vp).Prober.Schedule(0, func() { panic("injected fleet fault") })
	s.RunResponsiveness()
	requireShardLoss(t, s, vp)
	if errs := s.Camp.ShardErrors(); len(errs) != 0 {
		t.Errorf("fleet panic leaked into the contention campaign: %v", errs)
	}
}
