package deploy

import (
	"testing"
	"testing/quick"
	"time"

	"dashdb/internal/clusterfs"
)

func bigHost(name string) *Host {
	return NewHost(name, Hardware{Cores: 20, RAMBytes: 256 << 30, StorageBytes: 7 << 40})
}

func stdRegistry() *Registry {
	reg := NewRegistry()
	reg.Push(Image{Name: "dashdb-local", Version: "1.0", SizeBytes: 4 << 30})
	reg.Push(Image{Name: "dashdb-local", Version: "1.1", SizeBytes: 4 << 30})
	return reg
}

func TestAutoConfigureShares(t *testing.T) {
	hw := Hardware{Cores: 20, RAMBytes: 256 << 30, StorageBytes: 7 << 40}
	cfg := AutoConfigure(hw)
	if err := cfg.Validate(hw); err != nil {
		t.Fatal(err)
	}
	if cfg.BufferPoolBytes <= cfg.SortHeapBytes {
		t.Fatal("buffer pool must get the largest share")
	}
	if cfg.Parallelism != 20 || cfg.MaxConcurrency != 10 {
		t.Fatalf("parallelism/WLM %+v", cfg)
	}
	if cfg.ShardsPerNode != 5 {
		t.Fatalf("shards per node %d", cfg.ShardsPerNode)
	}
}

func TestAutoConfigureLaptop(t *testing.T) {
	// The 8GB entry-level configuration of §II.A.
	cfg := AutoConfigure(Hardware{Cores: 4, RAMBytes: 8 << 30, StorageBytes: 20 << 30})
	if cfg.ShardsPerNode != 1 {
		t.Fatalf("laptop shards %d", cfg.ShardsPerNode)
	}
	if cfg.MaxConcurrency < 2 {
		t.Fatalf("WLM %d", cfg.MaxConcurrency)
	}
}

// Property: auto-configuration never over-reserves memory and is monotone
// in RAM (more RAM never shrinks the buffer pool).
func TestAutoConfigureProperties(t *testing.T) {
	f := func(cores8 uint8, ramGB uint16) bool {
		hw := Hardware{Cores: int(cores8%128) + 1, RAMBytes: (int64(ramGB%4096) + 1) << 30}
		cfg := AutoConfigure(hw)
		if cfg.Validate(hw) != nil {
			return false
		}
		bigger := hw
		bigger.RAMBytes *= 2
		cfg2 := AutoConfigure(bigger)
		return cfg2.BufferPoolBytes >= cfg.BufferPoolBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDetectHardware(t *testing.T) {
	hw := DetectHardware()
	if hw.Cores < 1 || hw.RAMBytes < 1<<30 {
		t.Fatalf("detected %+v", hw)
	}
}

func TestRegistry(t *testing.T) {
	reg := stdRegistry()
	img, err := reg.Pull("dashdb-local", "1.0")
	if err != nil || img.SizeBytes != 4<<30 {
		t.Fatalf("pull %+v err %v", img, err)
	}
	if _, err := reg.Pull("dashdb-local", "9.9"); err == nil {
		t.Fatal("missing version must error")
	}
	if vs := reg.Versions("dashdb-local"); len(vs) != 2 || vs[0] != "1.0" {
		t.Fatalf("versions %v", vs)
	}
}

func TestSingleContainerRun(t *testing.T) {
	reg := stdRegistry()
	h := bigHost("srv1")
	c, tl, err := h.Run(reg, "dashdb-local", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateRunning {
		t.Fatalf("state %v", c.State)
	}
	if c.MountPath != "/mnt/clusterfs" {
		t.Fatalf("mount %s", c.MountPath)
	}
	// Paper: seconds to start container, few minutes for engine on large
	// memory configs; total well under 30 minutes for one host.
	if tl.Total() > 30*time.Minute {
		t.Fatalf("single-host deploy %v exceeds 30 minutes", tl.Total())
	}
	// Only one container per host.
	if _, _, err := h.Run(reg, "dashdb-local", "1.0"); err == nil {
		t.Fatal("second container on one host must be rejected")
	}
}

func TestEntryLevelGate(t *testing.T) {
	reg := stdRegistry()
	weak := NewHost("tiny", Hardware{Cores: 2, RAMBytes: 4 << 30, StorageBytes: 10 << 30})
	if _, _, err := weak.Run(reg, "dashdb-local", "1.0"); err == nil {
		t.Fatal("host below 8GB/20GB must be rejected")
	}
}

func TestStackUpdatePreservesDataPath(t *testing.T) {
	reg := stdRegistry()
	h := bigHost("srv1")
	c1, _, err := h.Run(reg, "dashdb-local", "1.0")
	if err != nil {
		t.Fatal(err)
	}
	c2, tl, err := h.Update(reg, "dashdb-local", "1.1")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Image.Version != "1.1" || c2.MountPath != c1.MountPath {
		t.Fatalf("update container %+v", c2)
	}
	// Update must not re-pull unrelated to version... new version pulls.
	foundPull := false
	for _, p := range tl.Phases {
		if p.Name == "pull image" {
			foundPull = true
		}
	}
	if !foundPull {
		t.Fatal("new version should pull")
	}
	// Updating again to the same version: no pull phase (cached).
	h.Stop()
	_, tl2, err := h.Run(reg, "dashdb-local", "1.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tl2.Phases {
		if p.Name == "pull image" {
			t.Fatal("cached image must not re-pull")
		}
	}
}

// TestClusterDeployUnder30Minutes reproduces experiment F-A: clusters
// from 4 to 24 large-memory nodes deploy fully configured in < 30
// simulated minutes.
func TestClusterDeployUnder30Minutes(t *testing.T) {
	for _, n := range []int{1, 4, 12, 24} {
		reg := stdRegistry()
		var hosts []*Host
		for i := 0; i < n; i++ {
			hosts = append(hosts, bigHost(hostName(i)))
		}
		dep, err := DeployCluster(reg, hosts, "dashdb-local", "1.0", clusterfs.New())
		if err != nil {
			t.Fatal(err)
		}
		total := dep.Timeline.Total()
		if total > 30*time.Minute {
			t.Fatalf("%d-node deploy took %v (> 30 min)", n, total)
		}
		if dep.Cluster.NShards() < n {
			t.Fatalf("%d-node cluster has %d shards", n, dep.Cluster.NShards())
		}
		// The cluster is immediately usable.
		if _, err := dep.Cluster.Query(`CREATE TABLE t (a BIGINT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Cluster.Query(`INSERT INTO t VALUES (1)`); err != nil {
			t.Fatal(err)
		}
		r, err := dep.Cluster.Query(`SELECT COUNT(*) FROM t`)
		if err != nil || r.Rows[0][0].Int() != 1 {
			t.Fatalf("post-deploy query: %v err %v", r, err)
		}
		t.Logf("%2d nodes: deploy %.1f min, %d shards", n, total.Minutes(), dep.Cluster.NShards())
	}
}

func hostName(i int) string { return string(rune('A'+i%26)) + "-host" }

func TestTimelineString(t *testing.T) {
	tl := Timeline{Phases: []Phase{{Name: "x", Duration: time.Second}}}
	if tl.String() == "" {
		t.Fatal("empty render")
	}
}

func TestQueryParallelismGetter(t *testing.T) {
	// Within the cap the derived degree tracks cores exactly.
	cfg := AutoConfigure(Hardware{Cores: 20, RAMBytes: 256 << 30})
	if cfg.QueryParallelism() != 20 {
		t.Fatalf("dop %d, want 20", cfg.QueryParallelism())
	}
	// Very wide hosts cap at the morsel-parallelism bound.
	wide := AutoConfigure(Hardware{Cores: 120, RAMBytes: 1 << 40})
	if wide.Parallelism != 64 || wide.QueryParallelism() != 64 {
		t.Fatalf("wide host dop %d/%d, want 64", wide.Parallelism, wide.QueryParallelism())
	}
	// Hand-edited degenerate configs still yield a usable degree.
	if (EngineConfig{Parallelism: 0}).QueryParallelism() != 1 {
		t.Fatal("zero parallelism must clamp to 1")
	}
	if (EngineConfig{Parallelism: 1 << 20}).QueryParallelism() != 64 {
		t.Fatal("hand-edited parallelism must clamp to the cap")
	}
}
