package columnar

import (
	"encoding/binary"
	"errors"
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

// ErrNoMeta is OpenTable's error for a table that has saved no metadata.
var ErrNoMeta = errors.New("columnar: no saved table metadata")

// metaColumn is the reserved column ordinal of the metadata pseudo-page.
const metaColumn = 0xFFFF

// metaID returns the table's metadata blob location.
func metaID(table uint32) page.ID {
	return page.ID{Table: table, Column: metaColumn, Stride: 0}
}

// The metadata blob is a types.Reader message behind the
// types.BlobTableMeta header:
//
//	string   table name
//	varint   rows, live rows, raw bytes
//	uvarint  page-generation allocator position
//	list     tombstones: each position's uvarint distance from the last
//	list     columns, each: the encoder snapshot (encoding.AppendEncoder),
//	         uvarint page generation, its synopsis entries (uvarint min
//	         and max code, NULL and row counts, bool all NULL), then the
//	         open stride as the column holds it: one uvarint code per row
//	         (0 for a NULL) and the rows' NULL flags as uvarint bitmap
//	         words, bit i in word i/64
//
// where a list is its uvarint length and then its elements.

// colMeta is one column's persisted state.
type colMeta struct {
	Encoder   encoding.Encoder
	Synopsis  []synopsis.Entry
	Gen       uint32 // page generation the sealed strides live under
	OpenCodes []uint64
	OpenNulls []uint64
}

// tableMeta is the persisted table state.
type tableMeta struct {
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
	b := types.AppendStr(types.AppendHeader(nil, types.BlobTableMeta), t.name)
	for _, x := range []int{t.rows, t.live, t.rawBytes} {
		b = binary.AppendVarint(b, int64(x))
	}
	b = binary.AppendUvarint(b, uint64(t.genSeq))
	deleted := 0
	t.deleted.ForEach(func(int) { deleted++ })
	b = binary.AppendUvarint(b, uint64(deleted))
	last := 0
	t.deleted.ForEach(func(i int) { b, last = binary.AppendUvarint(b, uint64(i-last)), i })
	b = binary.AppendUvarint(b, uint64(len(t.cols)))
	for _, c := range t.cols {
		var err error
		if b, err = encoding.AppendEncoder(b, c.enc); err != nil {
			return fmt.Errorf("columnar: save %s: %w", t.name, err)
		}
		b = binary.AppendUvarint(b, uint64(c.gen))
		entries := c.syn.Entries()
		b = binary.AppendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = binary.AppendUvarint(binary.AppendUvarint(b, e.MinCode), e.MaxCode)
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.NullCnt)), uint64(e.RowCnt))
			b = types.AppendBool(b, e.AllNulls)
		}
		b = binary.AppendUvarint(b, uint64(len(c.openCodes)))
		for _, code := range c.openCodes {
			b = binary.AppendUvarint(b, code)
		}
		b = binary.AppendUvarint(b, uint64((len(c.openNulls)+63)/64))
		for w := 0; w < len(c.openNulls); w += 64 {
			var word uint64
			for i, null := range c.openNulls[w:min(w+64, len(c.openNulls))] {
				if null {
					word |= 1 << i
				}
			}
			b = binary.AppendUvarint(b, word)
		}
	}
	return t.store.WritePage(metaID(t.id), b)
}

// readMeta decodes a metadata blob SaveMeta wrote.
func readMeta(data []byte) (tableMeta, error) {
	r := types.NewReader(data)
	r.Header(types.BlobTableMeta)
	m := tableMeta{Name: r.Str(), Rows: int(r.Varint()), Live: int(r.Varint()), RawBytes: int(r.Varint()), GenSeq: uint32(r.Uvarint())}
	if m.Rows < 0 || m.Live < 0 || m.Live > m.Rows {
		r.Fail(fmt.Errorf("%d live rows of %d", m.Live, m.Rows))
	}
	if n := r.Count(); n > 0 {
		m.Deleted = make([]int, n)
		pos := uint64(0)
		for i := range m.Deleted {
			if pos += r.Uvarint(); pos >= uint64(m.Rows) {
				r.Fail(fmt.Errorf("tombstone at row %d of %d", pos, m.Rows))
			}
			m.Deleted[i] = int(pos)
		}
	}
	if n := r.Count(); n > 0 {
		m.Cols = make([]colMeta, n)
		for i := range m.Cols {
			cm := &m.Cols[i]
			cm.Encoder, cm.Gen = encoding.ReadEncoder(&r), uint32(r.Uvarint())
			// Every sealed stride has its entry, which bounds the rows a
			// blob can claim by its length.
			if n := r.Count(); n < m.Rows/page.StrideSize {
				r.Fail(fmt.Errorf("%d synopsis entries for %d sealed strides", n, m.Rows/page.StrideSize))
			} else if n > 0 {
				cm.Synopsis = make([]synopsis.Entry, n)
				for j := range cm.Synopsis {
					cm.Synopsis[j] = synopsis.Entry{MinCode: r.Uvarint(), MaxCode: r.Uvarint(),
						NullCnt: uint32(r.Uvarint()), RowCnt: uint32(r.Uvarint()), AllNulls: r.Bool()}
				}
			}
			cm.OpenCodes, cm.OpenNulls = readUvarints(&r), readUvarints(&r)
		}
	}
	if len(m.Cols) == 0 && m.Rows > 0 {
		r.Fail(fmt.Errorf("%d rows of no columns", m.Rows))
	}
	if rest := len(r.Rest()); rest > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", rest))
	}
	return m, r.Err()
}

func readUvarints(r *types.Reader) []uint64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = r.Uvarint()
	}
	return xs
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
		return nil, fmt.Errorf("%w: table %d: %v", ErrNoMeta, id, err)
	}
	blob, err := readMeta(data)
	if err != nil {
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
		c := t.cols[ci]
		c.enc, c.gen = cm.Encoder, cm.Gen
		for s, e := range cm.Synopsis {
			c.syn.Set(s, e)
		}
		if err := c.installOpen(cm, t.openLen()); err != nil {
			return nil, fmt.Errorf("columnar: open table %d column %d: %w", id, ci, err)
		}
	}
	t.growDeletedLocked(t.rows)
	for _, pos := range blob.Deleted {
		if !t.deleted.Get(pos) {
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
