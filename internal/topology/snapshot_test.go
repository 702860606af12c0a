package topology

import (
	"testing"

	"recordroute/internal/netsim"
)

func snapshotTestConfig() Config {
	cfg := DefaultConfig(Epoch2016).Scale(0.15)
	cfg.Seed = 42
	return cfg
}

func TestSnapshotCloneStructure(t *testing.T) {
	src := MustBuild(snapshotTestConfig())
	clone := SnapshotOf(src).Clone()

	if clone.Net == src.Net {
		t.Fatal("clone shares the source network")
	}
	if clone.Net.NumNodes() != src.Net.NumNodes() {
		t.Fatalf("clone has %d nodes, source %d", clone.Net.NumNodes(), src.Net.NumNodes())
	}
	if len(clone.Dests) != len(src.Dests) {
		t.Fatalf("clone has %d dests, source %d", len(clone.Dests), len(src.Dests))
	}
	for i := range src.Routers {
		if len(clone.Routers[i]) != len(src.Routers[i]) {
			t.Fatalf("AS %d: %d routers, want %d", i, len(clone.Routers[i]), len(src.Routers[i]))
		}
		for j, r := range src.Routers[i] {
			cr := clone.Routers[i][j]
			if cr == r {
				t.Fatalf("AS %d router %d not remapped", i, j)
			}
			if cr.Name() != r.Name() {
				t.Fatalf("AS %d router %d named %q, want %q", i, j, cr.Name(), r.Name())
			}
			if cr.FIB() != r.FIB() {
				t.Fatalf("AS %d router %d does not share the frozen FIB", i, j)
			}
		}
	}
	for i, v := range src.VPs {
		cv := clone.VPs[i]
		if cv.Host == v.Host || cv.Host.Name() != v.Host.Name() || cv.Addr != v.Addr {
			t.Fatalf("VP %d (%s) misremapped", i, v.Name)
		}
		if cv.SourceRateLimited != v.SourceRateLimited {
			t.Fatalf("VP %s lost its rate-limited flag", v.Name)
		}
	}
	for i, d := range src.Dests {
		cd := clone.Dests[i]
		if cd.Host == d.Host || cd.Addr != d.Addr || cd.GTRRDrop != d.GTRRDrop {
			t.Fatalf("dest %d (%v) misremapped", i, d.Addr)
		}
		if clone.DestByAddr(d.Addr) != cd {
			t.Fatalf("DestByAddr(%v) not remapped", d.Addr)
		}
	}
}

// The ground-truth helpers must give identical answers on a clone: they
// traverse the shared route plane.
func TestSnapshotCloneGroundTruthEquivalent(t *testing.T) {
	src := MustBuild(snapshotTestConfig())
	clone := SnapshotOf(src).Clone()

	checked := 0
	for _, vp := range src.VPs {
		for _, d := range src.Dests {
			if checked >= 500 {
				break
			}
			want := src.ForwardStampPath(vp.Addr, d.Addr)
			got := clone.ForwardStampPath(vp.Addr, d.Addr)
			if len(want) != len(got) {
				t.Fatalf("%s→%v: clone path %v, want %v", vp.Name, d.Addr, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s→%v hop %d: clone %v, want %v", vp.Name, d.Addr, i, got[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
	for _, d := range src.Dests[:50] {
		if src.ASOf(d.Addr) != clone.ASOf(d.Addr) || src.ASNOf(d.Addr) != clone.ASNOf(d.Addr) {
			t.Fatalf("AS mapping differs for %v", d.Addr)
		}
	}
}

func TestSnapshotCloneWithFaults(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.Faults = &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
		OutageFrac: 0.02, WithdrawFrac: 0.05}
	src := MustBuild(cfg)
	clone := SnapshotOf(src).Clone()
	if clone.Faults != src.Faults {
		t.Fatalf("clone fault summary %+v, want %+v", clone.Faults, src.Faults)
	}
}
