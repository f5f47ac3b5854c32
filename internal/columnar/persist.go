package columnar

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
)

// Table persistence: SaveMeta writes everything that is not already in
// sealed pages — encoders (dictionaries), synopses, the open stride's
// codes, tombstones and counters — as a metadata blob in the page store.
// OpenTable reconstructs the table from that blob plus the existing
// pages. Together with the clustered filesystem this realizes §II.E's
// portability claim: copy the filesystem, reopen the tables anywhere.

// metaColumn is the reserved column ordinal of the metadata pseudo-page.
const metaColumn = 0xFFFF

// metaID returns the table's metadata blob location.
func metaID(table uint32) page.ID {
	return page.ID{Table: table, Column: metaColumn, Stride: 0}
}

// colMeta is one column's persisted state.
type colMeta struct {
	Encoder  []byte
	Synopsis []synopsis.Entry
	Gen      uint32 // page generation the sealed strides live under
	// The open stride as the column holds it: one code per row (0 for a
	// NULL), and the rows' NULL flags as a bitmap, bit i in word i/64.
	OpenCodes []uint64
	OpenNulls []uint64
}

// tableMetaBlob is the serialized table state.
type tableMetaBlob struct {
	Name     string
	Rows     int
	Live     int
	RawBytes int
	GenSeq   uint32 // page-generation allocator position
	Deleted  []int  // set tombstone positions
	Cols     []colMeta
}

// SaveMeta persists the table's non-page state into the page store.
func (t *Table) SaveMeta() error {
	t.mu.Lock() // writer lock: ensureEncodersLocked may install encoders
	defer t.mu.Unlock()
	t.ensureEncodersLocked()
	blob := tableMetaBlob{
		Name:     t.name,
		Rows:     t.rows,
		Live:     t.live,
		RawBytes: t.rawBytes,
		GenSeq:   t.genSeq,
	}
	t.deleted.ForEach(func(i int) { blob.Deleted = append(blob.Deleted, i) })
	for _, c := range t.cols {
		encBytes, err := encoding.MarshalEncoder(c.enc)
		if err != nil {
			return fmt.Errorf("columnar: save %s: %w", t.name, err)
		}
		cm := colMeta{Encoder: encBytes, Gen: c.gen, OpenCodes: c.openCodes, OpenNulls: make([]uint64, (len(c.openNulls)+63)/64)}
		for s := 0; s < c.syn.Strides(); s++ {
			cm.Synopsis = append(cm.Synopsis, c.syn.Entry(s))
		}
		for i, null := range c.openNulls {
			if null {
				cm.OpenNulls[i/64] |= 1 << (i % 64)
			}
		}
		blob.Cols = append(blob.Cols, cm)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return fmt.Errorf("columnar: save %s: %w", t.name, err)
	}
	return t.store.WritePage(metaID(t.id), buf.Bytes())
}

// OpenTable reopens a table previously persisted with SaveMeta: encoders,
// synopses and the open stride's codes come from the metadata blob,
// sealed pages stay where they are in the store. Nothing is re-encoded.
func OpenTable(id uint32, schema types.Schema, cfg Config) (*Table, error) {
	store := cfg.Store
	if store == nil {
		return nil, fmt.Errorf("columnar: OpenTable requires a page store")
	}
	data, err := store.ReadPage(metaID(id))
	if err != nil {
		return nil, fmt.Errorf("columnar: open table %d: %w", id, err)
	}
	var blob tableMetaBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("columnar: open table %d: %w", id, err)
	}
	if len(blob.Cols) != len(schema) {
		return nil, fmt.Errorf("columnar: open table %d: schema has %d columns, meta has %d", id, len(schema), len(blob.Cols))
	}
	t := NewTable(id, blob.Name, schema, cfg)
	t.rows, t.live = blob.Rows, blob.Rows // live is adjusted below by tombstones
	t.rawBytes = blob.RawBytes
	t.genSeq = blob.GenSeq
	for ci, cm := range blob.Cols {
		enc, err := encoding.UnmarshalEncoder(cm.Encoder)
		if err != nil {
			return nil, fmt.Errorf("columnar: open table %d column %d: %w", id, ci, err)
		}
		c := t.cols[ci]
		c.enc, c.gen = enc, cm.Gen
		for s, e := range cm.Synopsis {
			c.syn.Set(s, e)
		}
		if err := c.installOpen(cm, t.openLen()); err != nil {
			return nil, fmt.Errorf("columnar: open table %d column %d: %w", id, ci, err)
		}
	}
	t.growDeletedLocked(t.rows)
	for _, pos := range blob.Deleted {
		if pos < t.rows && !t.deleted.Get(pos) {
			t.deleted.Set(pos)
			t.live--
		}
	}
	if t.live != blob.Live {
		return nil, fmt.Errorf("columnar: open table %d: live count mismatch (%d vs %d)", id, t.live, blob.Live)
	}
	// Publish the restored state as the table's first real epoch (the
	// constructor published an empty one).
	t.publishLocked()
	return t, nil
}

// installOpen restores the column's open stride of open rows from cm.
// Every non-NULL code must lie inside the encoder's domain. A blob that
// holds no codes for a non-empty open stride — one written before the
// open stride was persisted as codes — is refused, not read as a table
// without its open rows.
func (c *column) installOpen(cm colMeta, open int) error {
	if len(cm.OpenCodes) != open || len(cm.OpenNulls) != (open+63)/64 {
		return fmt.Errorf("meta holds %d open codes and %d NULL words for an open stride of %d rows", len(cm.OpenCodes), len(cm.OpenNulls), open)
	}
	card := uint64(c.enc.Cardinality())
	for i, code := range cm.OpenCodes {
		null := cm.OpenNulls[i/64]>>(i%64)&1 != 0
		if null {
			code = 0
		} else if code >= card {
			return fmt.Errorf("open stride code %d outside its encoder's %d codes", code, card)
		}
		c.openCodes = append(c.openCodes, code)
		c.openNulls = append(c.openNulls, null)
	}
	return nil
}
