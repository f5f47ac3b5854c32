package mpp

import (
	"bytes"
	"encoding/gob"
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

// manifest is the cluster's persisted shape.
type manifest struct {
	NShards int
	Tables  []shardrpc.TableSpec // storage ids are identical on every shard
}

// Checkpoint makes the clustered filesystem a complete image of the
// cluster. Socket shard servers persist a table after every write, so
// there this only rewrites the manifest; in-process engines persist
// pages as strides seal but table metadata (dictionaries, synopses, the
// open stride) only here, which is what keeps their write path free of
// clusterfs writes. The cluster remains usable afterwards.
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
	return c.writeManifestLocked()
}

// writeManifest gob-encodes the cluster manifest onto the clustered
// filesystem.
func writeManifest(fs *clusterfs.FS, m manifest) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return err
	}
	fs.WriteFile(manifestPath, buf.Bytes())
	return nil
}

// readManifest loads the persisted cluster manifest.
func readManifest(fs *clusterfs.FS) (manifest, error) {
	var m manifest
	data, err := fs.ReadFile(manifestPath)
	if err != nil {
		return m, fmt.Errorf("mpp: no manifest: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return m, fmt.Errorf("mpp: manifest: %w", err)
	}
	return m, nil
}
