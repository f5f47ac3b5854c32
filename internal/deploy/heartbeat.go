//dashdb:nolint deadcode F-G: the heartbeat detector is wired into no binary (dashdbctl fail is manual); its tests drive it as F-G's failure detection

package deploy

import (
	"sync"
	"time"

	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
)

// Heartbeat failure detection for the distributed runtime (§II.E, HA):
// the console pings every node on an interval; a node that misses a
// configurable number of consecutive heartbeats is declared dead and
// the OnFail callback fires — typically NetCluster.FailNode, which
// re-associates the dead node's shards across the survivors. The
// Pinger is an interface so this package stays transport-agnostic
// (shardrpc in production, fakes in tests).

// Pinger probes one node; any error counts as a missed heartbeat.
type Pinger interface {
	PingNode(name, addr string) error
}

// PingerFunc adapts a function to the Pinger interface.
type PingerFunc func(name, addr string) error

// PingNode calls f.
func (f PingerFunc) PingNode(name, addr string) error { return f(name, addr) }

// MonitorConfig tunes the failure detector.
type MonitorConfig struct {
	Interval time.Duration // heartbeat period (default 500ms)
	Misses   int           // consecutive misses before declaring death (default 3)
}

// MonitoredNode is one heartbeat target.
type MonitoredNode struct {
	Name string
	Addr string
}

// Monitor runs the heartbeat loop over a fixed node set.
type Monitor struct {
	cfg    MonitorConfig
	pinger Pinger
	onFail func(name string)

	mu     sync.Mutex
	nodes  []MonitoredNode
	missed map[string]int
	dead   map[string]bool
	stop   chan struct{}
	done   chan struct{}
}

// NewMonitor builds a failure detector. onFail runs (on the monitor
// goroutine) exactly once per node death.
func NewMonitor(nodes []MonitoredNode, p Pinger, cfg MonitorConfig, onFail func(name string)) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	return &Monitor{
		cfg:    cfg,
		pinger: p,
		onFail: onFail,
		nodes:  append([]MonitoredNode(nil), nodes...),
		missed: make(map[string]int),
		dead:   make(map[string]bool),
	}
}

// Start launches the heartbeat loop.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()
	go m.run(stop, done)
}

// Stop halts the loop and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop = nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Dead reports whether a node has been declared dead.
func (m *Monitor) Dead(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead[name]
}

// Remove drops a node from monitoring (graceful shrink: leaving is not
// dying).
func (m *Monitor) Remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, n := range m.nodes {
		if n.Name == name {
			m.nodes = append(m.nodes[:i], m.nodes[i+1:]...)
			break
		}
	}
	delete(m.missed, name)
	delete(m.dead, name)
}

// Add starts monitoring a node (elastic grow).
func (m *Monitor) Add(n MonitoredNode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, have := range m.nodes {
		if have.Name == n.Name {
			return
		}
	}
	m.nodes = append(m.nodes, n)
}

// run sweeps every interval until stop closes. It takes its channels from
// Start rather than reading the fields Stop clears.
func (m *Monitor) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.sweep()
		}
	}
}

// Sweep pings every live node once, applying the miss counters. Split
// from run so tests can drive the detector without real time.
func (m *Monitor) Sweep() { m.sweep() }

// WatchNetCluster wires a Monitor to a network cluster: shardrpc pings
// are the heartbeats and FailNode is the death action, so a crashed
// node's shards move to the survivors without operator involvement.
// Call Start on the returned monitor (tests drive Sweep directly).
func WatchNetCluster(c *mpp.NetCluster, cfg MonitorConfig) *Monitor {
	pool := shardrpc.NewPool("console-heartbeat")
	var nodes []MonitoredNode
	for _, n := range c.Nodes() {
		nodes = append(nodes, MonitoredNode{Name: n.Name, Addr: n.Addr})
	}
	return NewMonitor(nodes, PingerFunc(func(name, addr string) error {
		_, err := pool.Ping(addr)
		return err
	}), cfg, func(name string) {
		c.FailNode(name) //nolint:errcheck — a concurrent manual failover is fine
	})
}

func (m *Monitor) sweep() {
	m.mu.Lock()
	targets := append([]MonitoredNode(nil), m.nodes...)
	dead := make(map[string]bool, len(m.dead))
	for k, v := range m.dead {
		dead[k] = v
	}
	m.mu.Unlock()

	for _, n := range targets {
		if dead[n.Name] {
			continue
		}
		err := m.pinger.PingNode(n.Name, n.Addr)
		m.mu.Lock()
		if err == nil {
			m.missed[n.Name] = 0
			m.mu.Unlock()
			continue
		}
		m.missed[n.Name]++
		declare := m.missed[n.Name] >= m.cfg.Misses && !m.dead[n.Name]
		if declare {
			m.dead[n.Name] = true
		}
		m.mu.Unlock()
		if declare && m.onFail != nil {
			m.onFail(n.Name)
		}
	}
}
