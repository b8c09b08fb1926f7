package dataset

import (
	"fmt"
	"io"
	"sort"

	"pka/internal/contingency"
)

// Codes is a CSV data bank read in one pass: the schema inferred from it
// plus every data row's value codes, in schema order. A field costs one
// byte; only a column with more than 256 distinct labels (possible when
// maxCard is 0 or above 256) widens the whole buffer to four.
type Codes struct {
	schema *Schema
	rows   int
	narrow []uint8  // row-major codes while every column fits a byte
	wide   []uint32 // row-major codes once one does not
}

// ScanCSV reads a CSV stream once. It infers the schema exactly as
// InferSchema does and codes every row against it, so the rows can then be
// counted into a dense Table or a Sparse table, or kept as a Dataset,
// without reading the stream again. Each column's labels are interned in
// first-seen order while the rows stream past; after the last row the
// codes are remapped to the schema's sorted value order.
func ScanCSV(r io.Reader, maxCard int) (*Codes, error) {
	return scanCSV(r, maxCard, true)
}

// InferSchema scans a CSV stream and builds a schema whose attributes are
// the header columns and whose values are the distinct labels seen, sorted
// for determinism. It is the "just point it at the data" ingest path of the
// CLI. maxCard bounds the per-attribute distinct count to catch columns that
// are really continuous identifiers (0 means no bound).
func InferSchema(r io.Reader, maxCard int) (*Schema, error) {
	c, err := scanCSV(r, maxCard, false)
	if err != nil {
		return nil, err
	}
	return c.schema, nil
}

// scanCSV is ScanCSV; keep=false infers the schema without storing codes.
func scanCSV(r io.Reader, maxCard int, keep bool) (*Codes, error) {
	s := newCSVScanner(r)
	if err := s.header(); err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	names := make([]string, s.nf)
	for i, f := range s.fields {
		names[i] = string(f)
	}
	cols := make([]labelIndex, s.nf)
	c := &Codes{}
	for row := 2; ; row++ {
		err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", row, err)
		}
		at := c.rows * s.nf
		if keep {
			c.grow(at + s.nf)
		}
		for i, f := range s.fields {
			code, ok := cols[i].find(f)
			if !ok {
				code = len(cols[i].labels)
				cols[i].add(string(f), code)
				if maxCard > 0 && code >= maxCard {
					return nil, fmt.Errorf("dataset: column %q exceeds %d distinct values; discretize it first",
						names[i], maxCard)
				}
				if keep && code == 1<<8 && c.wide == nil {
					c.widen()
				}
			}
			if !keep {
				continue
			}
			if c.wide != nil {
				c.wide[at+i] = uint32(code)
			} else {
				c.narrow[at+i] = uint8(code)
			}
		}
		c.rows++
	}
	attrs := make([]Attribute, len(names))
	remap := make([][]uint32, len(names))
	for i, x := range cols {
		order := make([]int, len(x.labels)) // first-seen codes, in label order
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool { return x.labels[order[a]] < x.labels[order[b]] })
		vals := make([]string, len(order))
		remap[i] = make([]uint32, len(order))
		for pos, j := range order {
			vals[pos] = x.labels[j]
			remap[i][j] = uint32(pos)
		}
		attrs[i] = Attribute{Name: names[i], Values: vals}
	}
	schema, err := NewSchema(attrs)
	if err != nil {
		return nil, err
	}
	c.schema = schema
	if keep {
		c.remap(remap)
	}
	return c, nil
}

// grow makes room for n codes, doubling so a long stream costs a handful
// of allocations, never one per row.
func (c *Codes) grow(n int) {
	if c.wide != nil {
		if n > cap(c.wide) {
			w := make([]uint32, n, max(2*cap(c.wide), n))
			copy(w, c.wide)
			c.wide = w
		}
		c.wide = c.wide[:n]
		return
	}
	if n > cap(c.narrow) {
		b := make([]uint8, n, max(2*cap(c.narrow), n, 4096))
		copy(b, c.narrow)
		c.narrow = b
	}
	c.narrow = c.narrow[:n]
}

// widen moves the codes to four bytes each, for a column past 256 labels.
func (c *Codes) widen() {
	c.wide = make([]uint32, len(c.narrow), max(cap(c.narrow), 1024))
	for k, v := range c.narrow {
		c.wide[k] = uint32(v)
	}
	c.narrow = nil
}

// remap rewrites every code from first-seen to schema order in place.
func (c *Codes) remap(to [][]uint32) {
	r := len(to)
	if c.wide != nil {
		for k, v := range c.wide {
			c.wide[k] = to[k%r][v]
		}
		return
	}
	for i, m := range to {
		if len(m) == 0 {
			continue
		}
		var lut [256]uint8
		for j, v := range m {
			lut[j] = uint8(v)
		}
		for k := i; k < len(c.narrow); k += r {
			c.narrow[k] = lut[c.narrow[k]]
		}
	}
}

// Schema returns the inferred schema.
func (c *Codes) Schema() *Schema { return c.schema }

// Len returns the number of data rows.
func (c *Codes) Len() int { return c.rows }

// row fills cell with data row k's codes.
func (c *Codes) row(k int, cell []int) {
	at := k * len(cell)
	if c.wide != nil {
		for i, v := range c.wide[at : at+len(cell)] {
			cell[i] = int(v)
		}
		return
	}
	for i, v := range c.narrow[at : at+len(cell)] {
		cell[i] = int(v)
	}
}

// Table counts the rows into a dense contingency table.
func (c *Codes) Table() (*contingency.Table, error) {
	t, err := contingency.New(c.schema.Names(), c.schema.Cards())
	if err != nil {
		return nil, err
	}
	cell := make([]int, c.schema.R())
	for k := range c.rows {
		c.row(k, cell)
		if err := t.Observe(cell...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Sparse counts the rows into a sparse table through ObserveBatch, one
// chunk of tabulateChunkRows rows at a time from reused row slots.
func (c *Codes) Sparse() (*contingency.Sparse, error) {
	t, err := contingency.NewSparse(c.schema.Names(), c.schema.Cards())
	if err != nil {
		return nil, err
	}
	ch := newChunk(c.schema.R())
	for k := range c.rows {
		c.row(k, ch.next())
		if err := ch.flushIfFull(t); err != nil {
			return nil, err
		}
	}
	return t, ch.flush(t)
}

// Dataset returns the rows as records. The records share one backing
// array, allocated once.
func (c *Codes) Dataset() *Dataset {
	r := c.schema.R()
	d := &Dataset{schema: c.schema, records: make([]Record, c.rows)}
	slab := make([]int, c.rows*r)
	for k := range d.records {
		rec := Record(slab[k*r : (k+1)*r : (k+1)*r])
		c.row(k, rec)
		d.records[k] = rec
	}
	return d
}

// chunk buffers coded rows for one Sparse.ObserveBatch call: large enough
// to amortize the batched mutation's per-call work, small enough to keep
// ingest memory flat. ObserveBatch does not retain the rows, so the row
// slots are reused by every chunk. They are allocated in doubling blocks
// as the first chunk fills, so a short file never pays for a full chunk.
type chunk struct {
	width int
	rows  [][]int // allocated row slots; the first n hold buffered rows
	n     int
}

// tabulateChunkRows is how many rows one chunk holds.
const tabulateChunkRows = 4096

func newChunk(width int) *chunk { return &chunk{width: width} }

// next returns the next row slot to fill.
func (ch *chunk) next() []int {
	if ch.n == len(ch.rows) {
		add := min(max(len(ch.rows), 64), tabulateChunkRows-len(ch.rows))
		block := make([]int, add*ch.width)
		for i := range add {
			ch.rows = append(ch.rows, block[i*ch.width:(i+1)*ch.width:(i+1)*ch.width])
		}
	}
	ch.n++
	return ch.rows[ch.n-1]
}

// flushIfFull observes the buffered rows once the chunk is full.
func (ch *chunk) flushIfFull(t *contingency.Sparse) error {
	if ch.n < tabulateChunkRows {
		return nil
	}
	return ch.flush(t)
}

// flush observes the buffered rows and empties the chunk.
func (ch *chunk) flush(t *contingency.Sparse) error {
	err := t.ObserveBatch(ch.rows[:ch.n])
	ch.n = 0
	return err
}
