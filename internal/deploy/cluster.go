package deploy

import (
	"fmt"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
)

// ClusterDeployment is the outcome of deploying dashDB Local across a set
// of hosts: a running MPP cluster plus the simulated deployment timeline
// (experiment F-A: "consistently able to deploy to large clusters in
// under 30 minutes, fully configured").
type ClusterDeployment struct {
	Cluster    *mpp.NetCluster
	Containers []*Container
	Timeline   Timeline
}

// DeployCluster pulls and runs the image on every host in parallel (the
// timeline takes the slowest host, since hosts deploy concurrently), then
// forms the MPP cluster over the shared filesystem with auto-configured
// shard fan-out.
func DeployCluster(reg *Registry, hosts []*Host, imageName, version string, fs *clusterfs.FS) (*ClusterDeployment, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("deploy: no hosts")
	}
	var containers []*Container
	var slowest Timeline
	for _, h := range hosts {
		c, tl, err := h.Run(reg, imageName, version)
		if err != nil {
			return nil, fmt.Errorf("deploy: host %s: %w", h.Name, err)
		}
		containers = append(containers, c)
		if tl.Total() > slowest.Total() {
			slowest = tl
		}
	}
	// Cluster formation: node discovery + shard layout + catalog init.
	formation := 30*time.Second + time.Duration(len(hosts))*2*time.Second
	slowest.Phases = append(slowest.Phases, Phase{Name: "cluster formation", Duration: formation})

	var nodes []mpp.NetNode
	shardsPerNode := 1
	for _, c := range containers {
		nodes = append(nodes, mpp.NetNode{
			Name:  c.Host.Name,
			Cores: c.Host.HW.Cores,
			// Host RAM, not the auto-configured buffer pool: the coordinator
			// applies the pool/heap shares to each shard's slice itself.
			MemBytes: c.Host.HW.RAMBytes,
		})
		if c.Config.ShardsPerNode > shardsPerNode {
			shardsPerNode = c.Config.ShardsPerNode
		}
	}
	cluster, err := mpp.NewCluster(nodes, shardsPerNode, fs)
	if err != nil {
		return nil, err
	}
	return &ClusterDeployment{Cluster: cluster, Containers: containers, Timeline: slowest}, nil
}
