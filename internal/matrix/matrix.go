// Package matrix implements the paper's actual computational task (§V-B):
// multiplication of 350×350 integer matrices read from and written to disk.
// The live examples and cmd/fnserve run this real computation; the
// simulation charges the calibrated service time instead.
package matrix

import (
	"encoding/binary"
	"fmt"
	"io"
)

// PaperN is the matrix dimension used throughout the paper's evaluation.
const PaperN = 350

// PaperValueMin and PaperValueMax bound the integer entries (§V-B:
// "integers ranging from -100 to 100").
const (
	PaperValueMin = -100
	PaperValueMax = 100
)

// Matrix is a dense row-major int64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []int64
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
}

// Rand fills the matrix with uniform integers in [lo, hi] drawn from next,
// a function returning uniform uint64s (e.g. a sim.RNG's Uint64).
func (m *Matrix) Rand(next func() uint64, lo, hi int64) {
	span := uint64(hi - lo + 1)
	for i := range m.Data {
		m.Data[i] = lo + int64(next()%span)
	}
}

// Mul returns m·o. It panics on a shape mismatch. The inner loops are
// ordered i-k-j so the innermost accesses are sequential in both operands —
// the standard cache-friendly form.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mRow := m.Data[i*m.Cols : (i+1)*m.Cols]
		oRow := out.Data[i*o.Cols : (i+1)*o.Cols]
		for k := 0; k < m.Cols; k++ {
			a := mRow[k]
			if a == 0 {
				continue
			}
			bRow := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, b := range bRow {
				oRow[j] += a * b
			}
		}
	}
	return out
}

// magic identifies the on-disk format ("matrix binary v1").
var magic = [4]byte{'M', 'A', 'T', '1'}

// WriteTo serialises the matrix in the repository's binary format:
// 4-byte magic, uint32 rows, uint32 cols, little-endian int64 data.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var hdr [12]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(m.Rows))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(m.Cols))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	buf := make([]byte, 8*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	n, err := w.Write(buf)
	return int64(len(hdr)) + int64(n), err
}

// ReadFrom parses a matrix in the binary format produced by WriteTo.
func ReadFrom(r io.Reader) (*Matrix, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matrix: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("matrix: bad magic %q", hdr[:4])
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:8]))
	cols := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if rows <= 0 || cols <= 0 || rows > 1<<20 || cols > 1<<20 {
		return nil, fmt.Errorf("matrix: implausible shape %dx%d", rows, cols)
	}
	m := New(rows, cols)
	buf := make([]byte, 8*len(m.Data))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("matrix: reading data: %w", err)
	}
	for i := range m.Data {
		m.Data[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return m, nil
}
