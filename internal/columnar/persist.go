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
// sealed pages — encoders (dictionaries), synopses, the open stride's tail
// page, tombstones and counters — as a metadata blob in the page store.
// OpenTable reconstructs the table from that blob plus the existing
// pages. Together with the clustered filesystem this realizes §II.E's
// portability claim: copy the filesystem, reopen the tables anywhere.

// ErrNoMeta is OpenTable's error for a table that has saved no metadata.
var ErrNoMeta = errors.New("columnar: no saved table metadata")

// ErrOpenCodes is OpenTable's error for metadata that holds a non-empty
// open stride as one uvarint code a row, as releases wrote it before the
// open stride rested as a tail page. It is not read: reload the table.
var ErrOpenCodes = errors.New("columnar: table metadata holds its open stride as codes, the form before tail pages, and is not read")

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
//	         uvarint page generation, the sealed strides' synopsis entries
//	         (uvarint min and max code, NULL and row counts, bool all
//	         NULL), a uvarint 0, then the open stride's tail page as
//	         page.Marshal writes it, behind its uvarint length (0: the
//	         open stride holds no row)
//
// where a list is its uvarint length and then its elements. The 0 before
// the tail is where a blob written before tail pages held the open
// stride's code count: such a blob reads when its open stride is empty
// (its count and NULL word count are both 0) and is refused with
// ErrOpenCodes otherwise.

// colMeta is one column's persisted state.
type colMeta struct {
	Encoder  encoding.Encoder
	Synopsis []synopsis.Entry
	Gen      uint32     // page generation the sealed strides live under
	Tail     *page.Page // nil when the open stride holds no row
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
		var tail []byte
		if c.tail != nil {
			tail = c.tail.Marshal()
		}
		b = append(binary.AppendUvarint(binary.AppendUvarint(b, 0), uint64(len(tail))), tail...)
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
			// blob can claim by its length, and only a sealed stride.
			if n := r.Count(); n != m.Rows/page.StrideSize {
				r.Fail(fmt.Errorf("%d synopsis entries for %d sealed strides", n, m.Rows/page.StrideSize))
			} else if n > 0 {
				cm.Synopsis = make([]synopsis.Entry, n)
				for j := range cm.Synopsis {
					cm.Synopsis[j] = synopsis.Entry{MinCode: r.Uvarint(), MaxCode: r.Uvarint(),
						NullCnt: uint32(r.Uvarint()), RowCnt: uint32(r.Uvarint()), AllNulls: r.Bool()}
				}
			}
			cm.Tail = readTail(&r)
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

// readTail reads a column's tail as SaveMeta writes it: nil when the open
// stride holds no row.
func readTail(r *types.Reader) *page.Page {
	if r.Uvarint() != 0 {
		r.Fail(ErrOpenCodes)
		return nil
	}
	raw := r.Str()
	if len(raw) == 0 {
		return nil
	}
	pg, err := page.Unmarshal([]byte(raw))
	if err != nil {
		r.Fail(fmt.Errorf("tail: %w", err))
	}
	return pg
}

// OpenTable reopens a table previously persisted with SaveMeta: encoders,
// synopses and the open stride's tail page come from the metadata blob,
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
		if err := c.installTail(cm.Tail, t.rows%page.StrideSize); err != nil {
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

// installTail makes pg, read from a blob, the column's tail for an open
// stride of open rows. Every non-NULL code must lie inside the encoder's
// domain.
func (c *column) installTail(pg *page.Page, open int) error {
	rows := 0
	if pg != nil {
		rows = pg.Rows()
	}
	if rows != open {
		return fmt.Errorf("meta holds a tail of %d rows for an open stride of %d", rows, open)
	}
	if open == 0 {
		return nil
	}
	codes, nulls := unpack(pg, make([]uint64, open), make([]bool, open))
	e := synopsis.Summarize(codes, func(i int) bool { return nulls[i] })
	if card := uint64(c.enc.Cardinality()); !e.AllNulls && e.MaxCode >= card {
		return fmt.Errorf("tail code %d outside its encoder's %d codes", e.MaxCode, card)
	}
	c.tail, c.tailSyn = pg, e
	return nil
}
