package mpp

import (
	"fmt"

	"dashdb/internal/clusterfs"
	"dashdb/internal/shardrpc"
)

// Cluster persistence realizes §II.E's portability claim in full: "by
// copying/moving the clustered file system by any method available to
// your infrastructure you can now docker run and deploy quick and easily
// against an entirely new set of hardware with a different physical
// cluster topology". The coordinator keeps a manifest of the shard count
// and tables on the filesystem; OpenNetCluster / Restore build a new
// cluster over any node list from it. The shard count is fixed by the
// manifest (shards own their file-sets); the node topology is free,
// exactly the paper's model.

// manifestPath is the manifest's location on the clustered filesystem.
const manifestPath = "cluster/manifest"

// Checkpoint makes the clustered filesystem a complete image of the
// cluster. A listening shard server persists a table after every write,
// so on a socket cluster this only rewrites the manifest; the in-process
// cluster's server, which never listens, persists pages as strides seal
// but table metadata (dictionaries, synopses, the open stride) only here
// and at Close, which is what keeps its write path free of clusterfs
// writes. The cluster remains usable afterwards.
func (c *NetCluster) Checkpoint() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for shard, db := range c.ShardEngines() {
		for name := range c.tables {
			tbl, ok := db.Table(name)
			if !ok {
				return fmt.Errorf("mpp: checkpoint: shard %d missing table %s", shard, name)
			}
			if err := tbl.SaveMeta(); err != nil {
				return fmt.Errorf("mpp: checkpoint: shard %d: %w", shard, err)
			}
		}
	}
	c.writeManifestLocked()
	return nil
}

// writeManifest writes the cluster manifest onto the clustered
// filesystem.
func writeManifest(fs *clusterfs.FS, m shardrpc.Manifest) {
	fs.WriteFile(manifestPath, shardrpc.AppendManifest(nil, &m))
}

// readManifest loads the persisted cluster manifest.
func readManifest(fs *clusterfs.FS) (shardrpc.Manifest, error) {
	data, err := fs.ReadFile(manifestPath)
	if err != nil {
		return shardrpc.Manifest{}, fmt.Errorf("mpp: no manifest: %w", err)
	}
	m, err := shardrpc.ReadManifest(data)
	if err != nil {
		return m, fmt.Errorf("mpp: %w", err)
	}
	return m, nil
}
