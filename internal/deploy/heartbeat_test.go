package deploy

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

func TestMonitorDeclaresDeathAfterConsecutiveMisses(t *testing.T) {
	healthy := map[string]bool{"a": true, "b": true}
	var failed []string
	m := NewMonitor(
		[]MonitoredNode{{Name: "a", Addr: "x"}, {Name: "b", Addr: "y"}},
		PingerFunc(func(name, addr string) error {
			if healthy[name] {
				return nil
			}
			return fmt.Errorf("down")
		}),
		MonitorConfig{Interval: time.Hour, Misses: 3},
		func(name string) { failed = append(failed, name) },
	)

	// A transient two-miss blip must not kill the node.
	healthy["b"] = false
	m.Sweep()
	m.Sweep()
	healthy["b"] = true
	m.Sweep()
	if len(failed) != 0 || m.Dead("b") {
		t.Fatalf("transient blip declared death: %v", failed)
	}

	// Three consecutive misses do, exactly once.
	healthy["b"] = false
	for i := 0; i < 5; i++ {
		m.Sweep()
	}
	if len(failed) != 1 || failed[0] != "b" {
		t.Fatalf("failed=%v, want exactly [b]", failed)
	}
	if !m.Dead("b") || m.Dead("a") {
		t.Fatal("death flags wrong")
	}
}

// TestMonitorStartDetectsFailure runs the real heartbeat loop: Start
// sweeps on its own ticker, a node that keeps failing its pings is
// declared dead once, and the loop keeps sweeping the survivors after.
func TestMonitorStartDetectsFailure(t *testing.T) {
	var pingsA, fails atomic.Int64
	failed := make(chan string, 2) // onFail sends at most once per node
	m := NewMonitor(
		[]MonitoredNode{{Name: "a", Addr: "x"}, {Name: "b", Addr: "y"}},
		PingerFunc(func(name, addr string) error {
			if name == "b" {
				return fmt.Errorf("down")
			}
			pingsA.Add(1)
			return nil
		}),
		MonitorConfig{Interval: time.Millisecond, Misses: 2},
		func(name string) {
			fails.Add(1)
			failed <- name
		},
	)
	m.Start()
	defer m.Stop()
	select {
	case name := <-failed:
		if name != "b" {
			t.Fatalf("declared %s dead, want b", name)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the heartbeat loop never declared b dead")
	}
	// Ten more sweeps of the survivor: b stays dead, and onFail stays fired once.
	for seen := pingsA.Load(); pingsA.Load() < seen+10; {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if n := fails.Load(); n != 1 || !m.Dead("b") || m.Dead("a") {
		t.Fatalf("onFail fired %d times (dead a=%v b=%v), want once for b", n, m.Dead("a"), m.Dead("b"))
	}
}

func TestMonitorAddRemove(t *testing.T) {
	var failed []string
	m := NewMonitor(nil,
		PingerFunc(func(name, addr string) error { return fmt.Errorf("down") }),
		MonitorConfig{Interval: time.Hour, Misses: 1},
		func(name string) { failed = append(failed, name) })
	m.Add(MonitoredNode{Name: "n1", Addr: "x"})
	m.Add(MonitoredNode{Name: "n1", Addr: "x"}) // duplicate ignored
	m.Remove("n1")                              // graceful leave: not a death
	m.Sweep()
	if len(failed) != 0 {
		t.Fatalf("removed node declared dead: %v", failed)
	}
}

// TestMonitorDrivesNetClusterFailover is the end-to-end HA loop: a real
// server dies, heartbeats miss, the monitor fails the node over, and
// the cluster keeps answering with all rows intact.
func TestMonitorDrivesNetClusterFailover(t *testing.T) {
	fs := clusterfs.New()
	var servers []*shardrpc.Server
	var nodes []mpp.NetNode
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("hb%d", i)
		srv := shardrpc.NewServer(name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatalf("start: %v", err)
		}
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		nodes = append(nodes, mpp.NetNode{Name: name, Addr: srv.Addr(), Cores: 2, MemBytes: 64 << 20})
	}
	c, err := mpp.NewNetCluster(nodes, 4, fs)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable("t", types.Schema{{Name: "v", Kind: types.KindInt}}, mpp.TableOptions{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	var rows []types.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := c.Insert("t", rows); err != nil {
		t.Fatalf("insert: %v", err)
	}

	mon := WatchNetCluster(c, MonitorConfig{Interval: time.Hour, Misses: 2})
	defer mon.Stop()
	mon.Sweep() // all healthy
	if mon.Dead("hb1") {
		t.Fatal("healthy node marked dead")
	}

	servers[1].Close()
	mon.Sweep()
	mon.Sweep()
	if !mon.Dead("hb1") {
		t.Fatal("dead node not detected")
	}
	if got := c.Assignment(); strings.Contains(got, "hb1") {
		t.Fatalf("failover did not run: %s", got)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil || res.Rows[0][0].Int() != 100 {
		t.Fatalf("post-failover query: %v %v", res, err)
	}
}
